"""Classification engine tests: named verdicts, rule routing, proof and
witness verification, tamper rejection, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

import graphcoherence as gc
from graphcoherence import (
    Classifier,
    EngineConfig,
    LabeledGraph,
    UnsupportedFlavorError,
    VertexCapError,
    Z2,
    classify,
    cyclic,
    cycle_edges,
    graph_product_graph,
    is_chordal,
    raag,
    racg,
    verify_proof,
    verify_witness,
    wise_gordon_check,
    witness_join_incoherence,
)
from graphcoherence import coherence_engine
from graphcoherence.coherence_engine import (
    COHERENT,
    INCOHERENT,
    UNKNOWN,
    DromsCycle,
    IncoherentFactor,
    JoinEmbedding,
    ProofNode,
    Witness,
    WiseGordonViolation,
    check_verdict,
    from_jsonable,
    to_jsonable,
    verdict_from_jsonable,
    verdict_to_jsonable,
)
from graphcoherence.labeled_graph import InternalInvariantError, canonical_form, graph_from_key
from helpers import (
    braid_like_artin_k4,
    complete_bipartite_racg,
    cycle_graph_product,
    cycle_racg,
    diamond_racg,
    path_raag,
    path_racg,
    prism_racg,
    random_chordal_graph,
    symmetric_coxeter_k4,
    triangle_coxeter_333,
)

NO_IFF_RULES = EngineConfig(disabled_rules=frozenset({"droms_chordal", "wise_gordon"}))


def assert_self_verifies(G, verdict, cap=12):
    if verdict.proof is not None:
        out = verify_proof(G, verdict.proof, cap=cap)
        assert out, out.reason
    if verdict.witness is not None:
        out = verify_witness(G, verdict.witness)
        assert out, out.reason


class TestRightAngledCoxeterInstances:
    def test_square_coherent_by_slenderness(self):
        v = classify(cycle_racg(4))
        assert v.status == COHERENT and v.proof.rule == "slender"
        assert_self_verifies(cycle_racg(4), v)

    def test_square_also_coherent_by_amalgam(self):
        G = cycle_racg(4)
        v = classify(G, EngineConfig(disabled_rules=frozenset({"slender"})))
        assert v.status == COHERENT and v.proof.rule == "amalgam"
        assert len(v.proof.data["separator"]) == 2
        assert_self_verifies(G, v)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
    def test_bigger_cycles_coherent_via_two_vertex_separator(self, n):
        G = cycle_racg(n)
        v = classify(G)
        assert v.status == COHERENT
        assert v.proof.rule == "amalgam"
        assert len(v.proof.data["separator"]) == 2
        assert v.proof.data["method"] == "search"
        assert_self_verifies(G, v)

    def test_complete_bipartite_incoherent(self):
        G = complete_bipartite_racg()
        v = classify(G)
        assert v.status == INCOHERENT
        assert isinstance(v.witness, JoinEmbedding)
        assert sorted(v.witness.side_a) == ["a", "b", "c"]
        assert sorted(v.witness.side_b) == ["d", "e", "f"]
        assert v.witness.cert_a.kind == "independent_triple"
        assert_self_verifies(G, v)

    def test_prism_unknown(self):
        v = classify(prism_racg())
        assert v.status == UNKNOWN
        assert v.proof is None and v.witness is None
        assert [n.code for n in v.notes] == ["search-exhausted"]

    def test_path_racg_coherent_by_dirac(self):
        G = path_racg(6)
        v = classify(G, EngineConfig(disabled_rules=frozenset({"slender"})))
        assert v.status == COHERENT
        assert v.proof.rule == "amalgam" and v.proof.data["method"] == "dirac"
        assert_self_verifies(G, v)

    def test_discrete_coxeter_mccammond_wise(self):
        G = racg(["a", "b", "c"], [])
        v = classify(G)
        assert v.status == COHERENT and v.proof.rule == "mccammond_wise"
        assert_self_verifies(G, v)


class TestRightAngledArtinInstances:
    def test_path_coherent_by_droms(self):
        G = path_raag(["a", "b", "c"])
        v = classify(G)
        assert v.status == COHERENT and v.proof.rule == "droms_chordal"
        assert_self_verifies(G, v)

    def test_square_incoherent_with_cycle_witness(self):
        G = raag(["a", "b", "c", "d"], cycle_edges(["a", "b", "c", "d"]))
        v = classify(G)
        assert v.status == INCOHERENT
        assert isinstance(v.witness, DromsCycle)
        assert len(v.witness.cycle) == 4
        assert_self_verifies(G, v)

    def test_pentagon_incoherent(self):
        ids = list("abcde")
        G = raag(ids, cycle_edges(ids))
        v = classify(G)
        assert v.status == INCOHERENT and isinstance(v.witness, DromsCycle)
        assert len(v.witness.cycle) == 5
        assert_self_verifies(G, v)

    def test_tree_coherent(self):
        G = raag(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
        assert classify(G).status == COHERENT

    def test_chordal_raag_without_iff_rules_still_coherent(self):
        G = diamond_racg().relabeled({v: v for v in diamond_racg().vertices})
        G = raag(list(G.vertices), [(u, w) for u, w, _ in G.edge_list()])
        v = classify(G, NO_IFF_RULES)
        assert v.status == COHERENT
        assert v.proof.rule in ("amalgam", "slender", "abelian")
        assert_self_verifies(G, v)

    def test_square_plus_point_incoherent_from_whole_graph(self):
        G = raag(["a", "b", "c", "d", "x"], cycle_edges(["a", "b", "c", "d"]))
        v = classify(G)
        assert v.status == INCOHERENT and isinstance(v.witness, DromsCycle)
        assert set(v.witness.cycle) == {"a", "b", "c", "d"}
        assert_self_verifies(G, v)

    def test_free_group_coherent(self):
        assert classify(raag(["a", "b", "c"], [])).status == COHERENT


class TestArtinInstances:
    def test_heavy_k4_incoherent_by_clique_labels(self):
        G = braid_like_artin_k4()
        v = classify(G)
        assert v.status == INCOHERENT
        assert isinstance(v.witness, WiseGordonViolation)
        assert v.witness.violation == "clique_big_labels"
        assert_self_verifies(G, v)

    def test_non_chordal_artin_long_cycle(self):
        ids = ["a", "b", "c", "d"]
        G = gc.artin_graph(ids, [(u, v, 3) for u, v in cycle_edges(ids)])
        v = classify(G)
        assert v.status == INCOHERENT
        assert v.witness.violation == "long_cycle"
        assert_self_verifies(G, v)

    def test_forbidden_square_over_heavy_edge(self):
        G = gc.artin_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 3), ("a", "c", 2), ("b", "c", 2), ("a", "d", 2), ("b", "d", 2)],
        )
        v = classify(G)
        assert v.status == INCOHERENT
        assert v.witness.violation == "forbidden_square"
        assert_self_verifies(G, v)

    def test_heavy_triangle_with_tail_coherent(self):
        G = gc.artin_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 3), ("a", "c", 2), ("b", "c", 2), ("c", "d", 2)],
        )
        v = classify(G)
        assert v.status == COHERENT and v.proof.rule == "wise_gordon"
        assert_self_verifies(G, v)

    def test_wise_gordon_check_details(self):
        violation = wise_gordon_check(braid_like_artin_k4())
        assert violation is not None
        assert violation.violation == "clique_big_labels"
        assert wise_gordon_check(path_raag(["a", "b"])) is None


class TestCoxeterInstances:
    def test_heavy_k4_coherent_because_finite(self):
        G = symmetric_coxeter_k4()
        v = classify(G)
        assert v.status == COHERENT and v.proof.rule == "slender"
        assert_self_verifies(G, v)

    def test_triangle_333_coherent_two_ways(self):
        G = triangle_coxeter_333()
        by_slender = classify(G)
        assert by_slender.status == COHERENT and by_slender.proof.rule == "slender"
        by_mw = classify(G, EngineConfig(disabled_rules=frozenset({"slender"})))
        assert by_mw.status == COHERENT and by_mw.proof.rule == "mccammond_wise"
        assert_self_verifies(G, by_slender)
        assert_self_verifies(G, by_mw)

    def test_big_labels_everywhere_mccammond_wise(self):
        ids = list("abcde")
        G = gc.coxeter_graph(ids, [(u, v, 5) for u, v in cycle_edges(ids)])
        v = classify(G)
        assert v.status == COHERENT and v.proof.rule == "mccammond_wise"
        assert v.proof.data["min_edge_label"] == 5
        assert_self_verifies(G, v)

    def test_chordal_split_needs_a_slender_separator(self):
        # K5 minus d-e: the clique separator {a, b, c} is the hyperbolic
        # (7, 7, 7) triangle, which is not slender, so neither the Dirac
        # split nor the search may build an amalgam over it.
        ids = list("abcde")
        edges = [(u, v, 7) for u, v in itertools.combinations("abc", 2)]
        edges += [(u, v, 4) for u in "abc" for v in "de"]
        G = gc.coxeter_graph(ids, edges)
        v = classify(G)
        assert v.status == UNKNOWN
        assert [(n.code, n.detail) for n in v.notes] == [
            (
                "search-exhausted",
                "2 separator splits examined, 0 slender ones recursed, "
                "none resolved both sides",
            )
        ]


class TestGraphProductInstances:
    def test_z3_square_incoherent(self):
        G = cycle_graph_product(4, cyclic(3))
        v = classify(G)
        assert v.status == INCOHERENT
        assert isinstance(v.witness, JoinEmbedding)
        assert v.witness.cert_a.kind == "free_pair"
        assert_self_verifies(G, v)

    def test_incoherent_side_of_an_amalgam_decides(self):
        # A Z-pentagon with a Z_2 vertex w on a: the amalgam search splits
        # over {a}, and the pentagon side's incoherence is the verdict.
        ids = list("abcde")
        G = graph_product_graph(
            [(x, gc.Z) for x in ids] + [("w", Z2)], cycle_edges(ids) + [("a", "w")]
        )
        v = classify(G)
        assert v.status == INCOHERENT
        assert isinstance(v.witness, IncoherentFactor)
        assert sorted(v.witness.vertices) == ids
        assert isinstance(v.witness.inner, DromsCycle)
        assert sorted(v.witness.inner.cycle) == ids
        assert_self_verifies(G, v)

    def test_z3_pentagon_unknown_open_problem(self):
        G = cycle_graph_product(5, cyclic(3))
        v = classify(G)
        assert v.status == UNKNOWN
        assert [n.code for n in v.notes] == ["search-exhausted", "open-problem"]
        open_note = v.notes[1]
        assert set(open_note.vertices) == set(G.vertices)

    def test_mixed_pentagon_unknown_without_open_problem_tag(self):
        ids = [f"v{i}" for i in range(5)]
        groups = [Z2] + [cyclic(3)] * 4
        G = graph_product_graph(list(zip(ids, groups)), cycle_edges(ids))
        v = classify(G)
        assert v.status == UNKNOWN
        assert [n.code for n in v.notes] == ["search-exhausted"]

    def test_discrete_z3_free_product_coherent(self):
        G = graph_product_graph([(x, cyclic(3)) for x in "abc"], [])
        v = classify(G)
        assert v.status == COHERENT and v.proof.rule == "free_product"
        assert len(v.proof.children) == 3
        assert_self_verifies(G, v)

    def test_abelian_leaf(self):
        G = graph_product_graph(
            [("a", cyclic(3)), ("b", gc.Z)], [("a", "b")]
        )
        v = classify(G)
        assert v.status == COHERENT and v.proof.rule == "abelian"
        assert_self_verifies(G, v)

    def test_z3_pentagon_plus_point_lifts_unknown(self):
        ids = [f"v{i}" for i in range(5)]
        G = graph_product_graph(
            [(v, cyclic(3)) for v in ids] + [("x", cyclic(3))], cycle_edges(ids)
        )
        v = classify(G)
        assert v.status == UNKNOWN
        codes = [n.code for n in v.notes]
        assert "component-unknown" in codes and "open-problem" in codes
        unknown_note = next(n for n in v.notes if n.code == "component-unknown")
        assert sorted(unknown_note.vertices) == ids


class TestMixedAndInvalid:
    def test_unsupported_flavor_raises(self):
        G = LabeledGraph.build([("a", cyclic(3)), ("b", cyclic(3))], [("a", "b", 3)])
        with pytest.raises(UnsupportedFlavorError):
            classify(G)

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(disabled_rules=frozenset({"not_a_rule"}))

    def test_negative_search_cap_rejected(self):
        with pytest.raises(ValueError, match="max_search_vertices must be at least 0"):
            EngineConfig(max_search_vertices=-1)

    def test_zero_search_cap_runs_only_size_independent_rules(self):
        config = EngineConfig(max_search_vertices=0)
        assert classify(cycle_racg(4), config).proof.rule == "slender"
        v = classify(cycle_racg(5), config)
        assert v.status == UNKNOWN
        assert [n.code for n in v.notes] == ["search-cap-exceeded"]

    def test_vertex_cap_notes(self):
        ids = [f"v{i}" for i in range(13)]
        G = racg(ids, cycle_edges(ids))
        v = classify(G)
        assert v.status == UNKNOWN
        assert [n.code for n in v.notes] == ["search-cap-exceeded"]

    def test_cap_can_be_raised(self):
        ids = [f"v{i}" for i in range(13)]
        G = racg(ids, cycle_edges(ids))
        v = classify(G, EngineConfig(max_search_vertices=13))
        assert v.status == COHERENT and v.proof.rule == "amalgam"
        out = verify_proof(G, v.proof, cap=13)
        assert out, out.reason

    def test_size_independent_rules_beat_the_cap(self):
        ids = [f"v{i}" for i in range(13)]
        v = classify(raag(ids, cycle_edges(ids)))
        assert v.status == INCOHERENT and isinstance(v.witness, DromsCycle)


class TestDeterminismAndIsomorphism:
    def test_repeat_classification_is_identical(self):
        G = prism_racg()
        a, b = classify(G), classify(G)
        assert a == b
        assert json.dumps(verdict_to_jsonable(a), sort_keys=True) == json.dumps(
            verdict_to_jsonable(b), sort_keys=True
        )

    def test_shared_classifier_memoizes(self):
        c = Classifier()
        G = cycle_racg(6)
        a = c.classify(G)
        b = c.classify(G.relabeled({v: v.upper() for v in G.vertices}))
        assert a.status == b.status == COHERENT
        assert a.proof.rule == b.proof.rule

    def test_isomorphic_inputs_get_isomorphic_verdicts(self):
        rng = random.Random(31)
        for _ in range(25):
            G = random_chordal_graph(rng, 8)
            order = list(G.vertices)
            rng.shuffle(order)
            H = G.permuted(order).relabeled(
                {v: f"n{i}" for i, v in enumerate(order)}
            )
            a, b = classify(G), classify(H)
            assert a.status == b.status
            if a.proof is not None:
                assert a.proof.rule == b.proof.rule
                assert a.proof.key == b.proof.key

    def test_verdict_vertices_follow_input_ids(self):
        G = cycle_racg(4).relabeled(
            {"v0": "p", "v1": "q", "v2": "r", "v3": "s"}
        )
        v = classify(G)
        assert set(v.proof.vertices) == {"p", "q", "r", "s"}


class TestSerialization:
    def _named_verdicts(self):
        cases = [
            cycle_racg(4),
            cycle_racg(5),
            complete_bipartite_racg(),
            prism_racg(),
            braid_like_artin_k4(),
            raag(["a", "b", "c", "d"], cycle_edges(["a", "b", "c", "d"])),
            cycle_graph_product(5, cyclic(3)),
            graph_product_graph([(x, cyclic(3)) for x in "abc"], []),
        ]
        return [(G, classify(G)) for G in cases]

    def test_verdict_round_trip(self):
        for G, v in self._named_verdicts():
            doc = json.loads(json.dumps(verdict_to_jsonable(v)))
            assert verdict_from_jsonable(doc) == v

    def test_proof_round_trip(self):
        v = classify(cycle_racg(5))
        doc = json.loads(json.dumps(to_jsonable(v.proof)))
        assert from_jsonable(ProofNode, doc) == v.proof

    def test_witness_round_trip(self):
        for G, v in self._named_verdicts():
            if v.witness is None:
                continue
            doc = json.loads(json.dumps(to_jsonable(v.witness)))
            assert from_jsonable(Witness, doc) == v.witness

    def test_wrapped_factor_witness_round_trip(self):
        inner = classify(complete_bipartite_racg()).witness
        w = IncoherentFactor(vertices=tuple("abcdef"), inner=inner)
        doc = json.loads(json.dumps(to_jsonable(w)))
        assert from_jsonable(Witness, doc) == w


class TestProofVerification:
    def test_all_named_proofs_verify(self):
        for G in (
            cycle_racg(4),
            cycle_racg(7),
            path_racg(5),
            diamond_racg(),
            symmetric_coxeter_k4(),
            triangle_coxeter_333(),
            path_raag(["a", "b", "c"]),
            graph_product_graph([(x, cyclic(3)) for x in "abc"], []),
        ):
            v = classify(G)
            assert v.status == COHERENT
            out = verify_proof(G, v.proof)
            assert out, out.reason

    def test_dropped_child_rejected(self):
        G = graph_product_graph([(x, cyclic(3)) for x in "abc"], [])
        v = classify(G)
        tampered = dataclasses.replace(v.proof, children=v.proof.children[:-1])
        assert not verify_proof(G, tampered)

    def test_dropped_amalgam_child_rejected(self):
        G = cycle_racg(5)
        v = classify(G)
        tampered = dataclasses.replace(v.proof, children=v.proof.children[1:])
        assert not verify_proof(G, tampered)

    def test_broken_separator_rejected(self):
        G = cycle_racg(5)
        v = classify(G)
        data = dict(v.proof.data)
        # v0 and v1 are adjacent: not a separator of the cycle
        data["separator"] = ["v0", "v1"]
        tampered = dataclasses.replace(v.proof, data=data)
        assert not verify_proof(G, tampered)

    def test_non_slender_separator_rejected(self):
        # hand-build an amalgam proof over a separator that is a valid
        # cut but not slender: independent side of the bipartite graph
        G = complete_bipartite_racg()
        v = classify(G)
        assert v.status == INCOHERENT
        sep = ("a", "b", "c")
        mk = lambda vs: ProofNode(
            rule="slender", vertices=vs, key="x", data={}, children=()
        )
        root = ProofNode(
            rule="amalgam",
            vertices=tuple(G.vertices),
            key="y",
            data={
                "separator": list(sep),
                "left": ["a", "b", "c", "d"],
                "right": ["a", "b", "c", "e", "f"],
                "method": "search",
            },
            children=(mk(("a", "b", "c", "d")), mk(("a", "b", "c", "e", "f"))),
        )
        out = verify_proof(G, root)
        assert not out

    def test_wrong_vertex_set_rejected(self):
        G = cycle_racg(4)
        v = classify(G)
        tampered = dataclasses.replace(v.proof, vertices=("v0", "v1", "v2"))
        assert not verify_proof(G, tampered)

    def test_edge_relabel_rejected(self):
        # proof computed for the square, graph re-labeled to a coxeter
        # square with one label-4 edge: keys no longer match
        G = cycle_racg(4)
        v = classify(G)
        H = gc.coxeter_graph(
            [f"v{i}" for i in range(4)],
            [("v0", "v1", 4), ("v1", "v2", 2), ("v2", "v3", 2), ("v0", "v3", 2)],
        )
        assert not verify_proof(H, v.proof)

    def test_wrong_leaf_rule_rejected(self):
        G = cycle_racg(5)  # not slender, not chordal
        node = ProofNode(rule="slender", vertices=tuple(G.vertices), key="k")
        assert not verify_proof(G, node)
        node = ProofNode(rule="droms_chordal", vertices=tuple(G.vertices), key="k")
        assert not verify_proof(G, node)

    def test_free_product_requires_real_components(self):
        G = racg(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        v = classify(G)
        assert v.proof.rule in ("free_product", "mccammond_wise")


def chordal_leaf_graph(rule: str, cycle: bool = False) -> LabeledGraph:
    """The Artin path a-b-c-d that ``rule`` proves coherent: all labels 2
    for droms_chordal, a heavy edge ab for wise_gordon.  With ``cycle``
    the edge da closes it into a 4-cycle, which is not chordal."""
    edges = [("a", "b", 3 if rule == "wise_gordon" else 2), ("b", "c", 2), ("c", "d", 2)]
    return gc.artin_graph(list("abcd"), edges + [("d", "a", 2)] * cycle)


class TestStoredEvidence:
    """verify_proof checks every evidence field a prover stores, not
    only the facts the rule itself rests on."""

    def assert_rejected(self, G, node, reason):
        out = verify_proof(G, node)
        assert not out
        assert out.reason == reason

    @pytest.mark.parametrize("rule", ["droms_chordal", "wise_gordon"])
    def test_stored_peo_must_verify(self, rule):
        G = chordal_leaf_graph(rule)
        proof = classify(G).proof
        assert proof.rule == rule and verify_proof(G, proof)
        for peo in (["a", "a", "a", "a"], ["a", "b", "c", 1], 7):
            bad = dataclasses.replace(proof, data={"peo": peo})
            self.assert_rejected(G, bad, "stored elimination ordering does not verify")

    @pytest.mark.parametrize("rule", ["droms_chordal", "wise_gordon"])
    def test_a_stored_peo_spares_the_chordality_test(self, rule, monkeypatch):
        """A stored perfect elimination ordering proves the leaf chordal,
        so verification never runs ``is_chordal``, and a leaf without
        one is refused, on a chordal graph and on a 4-cycle alike."""
        calls = []

        def counted(G):
            calls.append(G)
            return is_chordal(G)

        monkeypatch.setattr(coherence_engine, "is_chordal", counted)
        G = chordal_leaf_graph(rule)
        proof = classify(G).proof
        assert proof.rule == rule
        calls.clear()
        assert verify_proof(G, proof) and calls == []
        bare = dataclasses.replace(proof, data={})
        reason = "stored elimination ordering does not verify"
        self.assert_rejected(G, bare, reason)
        C = chordal_leaf_graph(rule, cycle=True)
        self.assert_rejected(C, dataclasses.replace(bare, key=Classifier().node_key(C)[0]), reason)
        assert calls == []

    def test_free_product_components_must_match_the_factors(self):
        G = graph_product_graph([(x, cyclic(3)) for x in "ab"], [])
        proof = classify(G).proof
        assert proof.rule == "free_product" and verify_proof(G, proof)
        reason = "stored components do not match the factors"
        bad = dataclasses.replace(proof, data={"components": [["a"], ["zzz"]]})
        self.assert_rejected(G, bad, reason)
        swapped = dataclasses.replace(proof, data={"components": proof.data["components"][::-1]})
        self.assert_rejected(G, swapped, reason)
        for malformed in ([1, 2], [[["a"]], ["b"]], 7):
            self.assert_rejected(G, dataclasses.replace(proof, data={"components": malformed}), reason)

    @pytest.mark.parametrize(
        "data, reason",
        [
            ({"vertex_count": 99, "min_edge_label": 1}, "stored vertex count does not match the subgraph"),
            ({"vertex_count": 3, "min_edge_label": 1}, "stored minimum edge label does not match the subgraph"),
        ],
    )
    def test_mccammond_wise_counts_must_match(self, data, reason):
        G = gc.coxeter_graph(list("abc"), [("a", "b", 5), ("b", "c", 6), ("a", "c", 5)])
        proof = classify(G).proof
        assert proof.rule == "mccammond_wise"
        assert proof.data == {"vertex_count": 3, "min_edge_label": 5} and verify_proof(G, proof)
        self.assert_rejected(G, dataclasses.replace(proof, data=data), reason)

    def test_mccammond_wise_without_edges_stores_no_label(self):
        G = gc.coxeter_graph(["a"])
        data = {"vertex_count": 1, "min_edge_label": None}
        node = ProofNode("mccammond_wise", ("a",), gc.canonical_key(G), data)
        assert verify_proof(G, node)
        self.assert_rejected(
            G,
            dataclasses.replace(node, data={"vertex_count": 1, "min_edge_label": 2}),
            "stored minimum edge label does not match the subgraph",
        )

    def test_slender_certificate_reason_must_match(self):
        G = cycle_racg(4)
        proof = classify(G).proof
        assert proof.rule == "slender" and verify_proof(G, proof)
        bad = dataclasses.replace(
            proof, data={"certificate": {"reason": "nonsense", "factors": []}}
        )
        self.assert_rejected(G, bad, "stored slenderness reason does not match the subgraph")
        for malformed in (7, "slender", ["reason"]):
            self.assert_rejected(
                G,
                dataclasses.replace(proof, data={"certificate": malformed}),
                "stored slenderness reason does not match the subgraph",
            )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda fs: fs[:1],
            lambda fs: [{**f, "kind": "finite"} for f in fs],
            lambda fs: [{**f, "type": "A1"} for f in fs],
            lambda fs: [{**f, "vertices": f["vertices"][:1]} for f in fs],
            lambda fs: [{"kind": f["kind"]} for f in fs],
            lambda fs: [f["vertices"] for f in fs],
            lambda fs: 7,
        ],
    )
    def test_slender_certificate_factors_must_match(self, edit):
        G = cycle_racg(4)
        proof = classify(G).proof
        cert = proof.data["certificate"]
        bad = dataclasses.replace(
            proof, data={"certificate": {**cert, "factors": edit(cert["factors"])}}
        )
        self.assert_rejected(G, bad, "stored slender factors do not match the subgraph")

    def test_slender_factors_compare_as_a_set(self):
        G = cycle_racg(4)
        proof = classify(G).proof
        cert = proof.data["certificate"]
        assert len(cert["factors"]) == 2
        reordered = {
            **cert,
            "factors": [
                {**f, "vertices": f["vertices"][::-1]} for f in cert["factors"][::-1]
            ],
        }
        assert verify_proof(G, dataclasses.replace(proof, data={"certificate": reordered}))

    def test_abelian_certificate_must_match(self):
        G = graph_product_graph([("a", cyclic(3)), ("b", gc.Z)], [("a", "b")])
        proof = classify(G).proof
        assert proof.rule == "abelian" and verify_proof(G, proof)
        bad = dataclasses.replace(
            proof, data={"certificate": {**proof.data["certificate"], "factors": []}}
        )
        self.assert_rejected(G, bad, "stored slender factors do not match the subgraph")


    @pytest.mark.parametrize(
        "G, rule, field, reason",
        [
            (
                cycle_racg(4),
                "slender",
                "certificate",
                "stored slenderness reason does not match the subgraph",
            ),
            (
                graph_product_graph([(x, cyclic(3)) for x in "ab"], []),
                "free_product",
                "components",
                "stored components do not match the factors",
            ),
            (
                gc.coxeter_graph(list("abc"), [("a", "b", 5), ("b", "c", 6), ("a", "c", 5)]),
                "mccammond_wise",
                "vertex_count",
                "stored vertex count does not match the subgraph",
            ),
            (
                gc.coxeter_graph(list("abc"), [("a", "b", 5), ("b", "c", 6), ("a", "c", 5)]),
                "mccammond_wise",
                "min_edge_label",
                "stored minimum edge label does not match the subgraph",
            ),
            (path_racg(6), "amalgam", "method", "amalgam node missing field 'method'"),
        ],
        ids=["slender", "free_product", "mccammond_wise-count", "mccammond_wise-label", "amalgam"],
    )
    def test_a_missing_data_key_is_refused(self, G, rule, field, reason):
        """Stored evidence holds every data key its rule writes; a node
        without one is refused, never completed by a default."""
        proof = classify(G).proof
        assert proof.rule == rule and field in proof.data and verify_proof(G, proof)
        data = {k: v for k, v in proof.data.items() if k != field}
        self.assert_rejected(G, dataclasses.replace(proof, data=data), reason)

    def test_an_amalgam_child_without_a_method_is_refused(self):
        G = path_racg(6)
        proof = classify(G).proof
        child = proof.children[1]
        assert child.rule == "amalgam"
        data = {k: v for k, v in child.data.items() if k != "method"}
        children = (proof.children[0], dataclasses.replace(child, data=data))
        out = verify_proof(G, dataclasses.replace(proof, children=children))
        assert out.path == ("root", "right") and out.reason == "amalgam node missing field 'method'"


class TestWarmSlenderMemo:
    """A slenderness premise whose structure the classifier's slender
    memo already holds is decided by a hit, with no ``is_slender`` run,
    and is still refused as a fresh check refuses it."""

    @pytest.fixture(autouse=True)
    def computed(self, monkeypatch):
        self.computed = []
        original = coherence_engine.is_slender

        def counting(G):
            self.computed.append(G)
            return original(G)

        monkeypatch.setattr(coherence_engine, "is_slender", counting)

    def assert_rejected_by_a_hit(self, G, clf, node, path, reason):
        before = len(self.computed)
        warm = verify_proof(G, node, classifier=clf)
        assert len(self.computed) == before
        assert (warm.ok, warm.path, warm.reason) == (False, path, reason)
        assert warm == verify_proof(G, node)

    def test_a_slender_leaf_on_a_non_slender_subgraph(self):
        G = cycle_racg(5)
        clf = Classifier()
        assert clf.classify(G).proof.rule == "amalgam"
        key, placement = clf.node_key(G)
        sub = G.permuted(placement)
        assert clf._slender[sub.groups, sub.edges].verdict == "not_slender"
        node = ProofNode("slender", placement, key)
        self.assert_rejected_by_a_hit(
            G, clf, node, ("root",), "slender leaf on a non-slender subgraph"
        )

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (
                lambda cert: {**cert, "reason": "direct-product-of-slender-factors"},
                "stored slenderness reason does not match the subgraph",
            ),
            (
                lambda cert: {**cert, "factors": cert["factors"][:1]},
                "stored slender factors do not match the subgraph",
            ),
            (
                lambda cert: {**cert, "factors": [{**f, "kind": "finite"} for f in cert["factors"]]},
                "stored slender factors do not match the subgraph",
            ),
        ],
    )
    def test_an_altered_stored_certificate(self, edit, reason):
        G = cycle_racg(4)
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == "slender" and verify_proof(G, proof, classifier=clf)
        cert = proof.data["certificate"]
        bad = dataclasses.replace(proof, data={"certificate": edit(cert)})
        self.assert_rejected_by_a_hit(G, clf, bad, ("root",), reason)

    def test_an_amalgam_over_a_non_slender_separator(self):
        G = complete_bipartite_racg()
        clf = Classifier()
        # Three isolated vertices under other ids: the separator's structure.
        assert clf.classify(racg(["x", "y", "z"], [])).status == COHERENT
        sep = G.induced(("a", "b", "c"))
        assert clf._slender[sep.groups, sep.edges].verdict == "not_slender"
        leaf = lambda vs: ProofNode("slender", vs, "x")
        root = ProofNode(
            "amalgam",
            tuple(G.vertices),
            clf.node_key(G)[0],
            {
                "separator": ["a", "b", "c"],
                "left": ["a", "b", "c", "d"],
                "right": ["a", "b", "c", "e", "f"],
                "method": "search",
            },
            (leaf(("a", "b", "c", "d")), leaf(("a", "b", "c", "e", "f"))),
        )
        self.assert_rejected_by_a_hit(
            G, clf, root, ("root",), "separator subgroup is not slender"
        )


def with_side(node, side: str, child=None):
    """The amalgam ``node`` with its split's ``side`` listing its first
    vertex twice, and with ``child`` as the child of that side if given."""
    listed = list(node.data[side])
    children = node.children
    if child is not None:
        at = ("left", "right").index(side)
        children = children[:at] + (child,) + children[at + 1:]
    return dataclasses.replace(
        node, data={**node.data, side: listed[:1] + listed}, children=children
    )


class TestRepeatedVertices:
    """A node, or a split's side or separator, that lists a vertex twice
    is refused by a fresh check and by the classifier that wrote the
    proof, though the vertex set it lists is right."""

    def assert_rejected(self, G, clf, node, path, reason):
        for out in (verify_proof(G, node), verify_proof(G, node, classifier=clf)):
            assert (out.ok, out.path, out.reason) == (False, path, reason)

    def test_an_amalgam_side_and_its_child(self):
        G = path_racg(6)
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == "amalgam" and verify_proof(G, proof, classifier=clf)
        first = proof.children[0]
        doubled = dataclasses.replace(first, vertices=first.vertices[:1] + first.vertices)
        bad = with_side(proof, "left", doubled)
        self.assert_rejected(G, clf, bad, ("root",), "amalgam left lists a vertex twice")

    def test_a_slender_leaf_and_its_side(self):
        G = path_racg(6)
        clf = Classifier()
        proof = clf.classify(G).proof
        outer = proof.children[1]
        inner = outer.children[1]
        leaf = inner.children[1]
        assert leaf.rule == "slender" and list(leaf.vertices) == inner.data["right"]
        doubled = dataclasses.replace(leaf, vertices=leaf.vertices + leaf.vertices[1:2])

        def placed(bad_inner):
            bad_outer = dataclasses.replace(outer, children=(outer.children[0], bad_inner))
            return dataclasses.replace(proof, children=(proof.children[0], bad_outer))

        path = ("root", "right", "right")
        bad = placed(with_side(inner, "right", doubled))
        self.assert_rejected(G, clf, bad, path, "amalgam right lists a vertex twice")
        bad = placed(dataclasses.replace(inner, children=(inner.children[0], doubled)))
        self.assert_rejected(G, clf, bad, path + ("right",), "node lists a vertex twice")

    def test_an_amalgam_separator(self):
        G = path_racg(6)
        clf = Classifier()
        proof = clf.classify(G).proof
        bad = with_side(proof, "separator")
        self.assert_rejected(G, clf, bad, ("root",), "amalgam separator lists a vertex twice")

    def test_a_free_factor(self):
        G = graph_product_graph([(x, cyclic(3)) for x in "abc"], [("a", "b")])
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == "free_product" and verify_proof(G, proof, classifier=clf)
        at = next(i for i, c in enumerate(proof.children) if len(c.vertices) > 1)
        factor = proof.children[at]
        doubled = dataclasses.replace(factor, vertices=factor.vertices + factor.vertices[:1])
        children = proof.children[:at] + (doubled,) + proof.children[at + 1:]
        bad = dataclasses.replace(proof, children=children)
        self.assert_rejected(G, clf, bad, ("root", f"factor[{at}]"), "node lists a vertex twice")

    def test_stored_free_product_components(self):
        G = graph_product_graph([(x, cyclic(3)) for x in "abc"], [("a", "b")])
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == "free_product" and verify_proof(G, proof, classifier=clf)
        first, *rest = proof.data["components"]
        doubled = [first + first[:1], *rest]
        bad = dataclasses.replace(proof, data={**proof.data, "components": doubled})
        self.assert_rejected(G, clf, bad, ("root",), "stored components list a vertex twice")

    @pytest.mark.parametrize(
        "G, rule",
        [
            (cycle_racg(4), "slender"),
            (graph_product_graph([(x, cyclic(3)) for x in "abc"], cycle_edges("abc")), "abelian"),
        ],
        ids=["slender", "abelian"],
    )
    @pytest.mark.parametrize(
        "edit",
        [
            lambda first, rest: [{**first, "vertices": first["vertices"] * 2}, *rest],
            lambda first, rest: [first, *rest, first],
        ],
        ids=["a-factor-repeats-a-vertex", "a-factor-listed-twice"],
    )
    def test_a_stored_certificate_factor(self, G, rule, edit):
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == rule and verify_proof(G, proof, classifier=clf)
        cert = proof.data["certificate"]
        first, *rest = cert["factors"]
        data = {"certificate": {**cert, "factors": edit(first, rest)}}
        bad = dataclasses.replace(proof, data=data)
        self.assert_rejected(G, clf, bad, ("root",), "stored slender factors list a vertex twice")


class TestIdListsGivenAsStrings:
    """Where evidence lists vertex ids, it must list them in an array.
    On a canonical representative every id is one character, so a
    string of ids would name the right vertices one character at a time;
    it is refused by a fresh check and by the classifier that wrote the
    proof."""

    def assert_rejected(self, G, clf, node, reason):
        for out in (verify_proof(G, node), verify_proof(G, node, classifier=clf)):
            assert (out.ok, out.path, out.reason) == (False, ("root",), reason)

    @staticmethod
    def canonical(G):
        return graph_from_key(canonical_form(G)[0])

    @pytest.mark.parametrize(
        "G, rule",
        [
            (cycle_racg(4), "slender"),
            (graph_product_graph([(x, cyclic(3)) for x in "abc"], cycle_edges("abc")), "abelian"),
        ],
        ids=["slender", "abelian"],
    )
    def test_slender_certificate_factor_vertices(self, G, rule):
        G = self.canonical(G)
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == rule and verify_proof(G, proof, classifier=clf)
        cert = proof.data["certificate"]
        factors = [{**f, "vertices": "".join(f["vertices"])} for f in cert["factors"]]
        bad = dataclasses.replace(proof, data={"certificate": {**cert, "factors": factors}})
        self.assert_rejected(G, clf, bad, "stored slender factors do not match the subgraph")

    def test_free_product_components(self):
        G = self.canonical(graph_product_graph([(x, cyclic(3)) for x in "abc"], [("a", "b")]))
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == "free_product" and verify_proof(G, proof, classifier=clf)
        components = ["".join(c) for c in proof.data["components"]]
        assert sorted(components) == ["0", "12"]
        for bad_components in (components, "".join(components)):
            bad = dataclasses.replace(proof, data={"components": bad_components})
            self.assert_rejected(G, clf, bad, "stored components do not match the factors")

    def test_node_vertices(self):
        G = self.canonical(cycle_racg(4))
        clf = Classifier()
        proof = clf.classify(G).proof
        assert tuple(proof.vertices) == G.vertices and verify_proof(G, proof, classifier=clf)
        bad = dataclasses.replace(proof, vertices="".join(proof.vertices))
        self.assert_rejected(G, clf, bad, "node does not list vertex ids in an array")

    def test_elimination_ordering(self):
        G = self.canonical(chordal_leaf_graph("droms_chordal"))
        clf = Classifier()
        proof = clf.classify(G).proof
        assert proof.rule == "droms_chordal" and verify_proof(G, proof, classifier=clf)
        bad = dataclasses.replace(proof, data={"peo": "".join(proof.data["peo"])})
        self.assert_rejected(G, clf, bad, "stored elimination ordering does not verify")


class TestWitnessIdListsRepeatNoVertex:
    """A witness whose join side or factor lists a vertex twice is
    refused, read back from its JSON form, by a fresh check and by one
    through the classifier that wrote it: ids name vertices, and the
    bitmasks the checks build would merge a repeat silently."""

    @staticmethod
    def assert_refused(G, clf, witness, path, reason):
        verdict = verdict_from_jsonable(verdict_to_jsonable(clf.classify(G)))
        bad = dataclasses.replace(verdict, witness=witness)
        bad = verdict_from_jsonable(json.loads(json.dumps(verdict_to_jsonable(bad))))
        out = verify_witness(G, bad.witness)
        assert (out.ok, out.path, out.reason) == (False, path, reason)
        for classifier in (None, clf):
            with pytest.raises(InternalInvariantError, match=f"at {'/'.join(path)}: {reason}$"):
                check_verdict(G, bad, classifier=classifier)

    def test_a_join_side(self):
        G = racg(list("abcxyz"), [(u, v) for u in "abc" for v in "xyz"])
        clf = Classifier()
        w = clf.classify(G).witness
        assert w.side_b == ("x", "y", "z") and verify_witness(G, w)
        bad = dataclasses.replace(w, side_b=("x", "y", "z", "x"))
        self.assert_refused(G, clf, bad, ("witness",), "join side lists a vertex twice")

    def test_an_incoherent_factor(self):
        from test_evidence_references import NESTED_FACTORS

        clf = Classifier()
        w = clf.classify(NESTED_FACTORS).witness
        assert isinstance(w, IncoherentFactor) and verify_witness(NESTED_FACTORS, w)
        bad = dataclasses.replace(w, vertices=w.vertices + w.vertices[:1])
        self.assert_refused(NESTED_FACTORS, clf, bad, ("witness",), "factor lists a vertex twice")
        inner = dataclasses.replace(w.inner, vertices=w.inner.vertices[:1] + w.inner.vertices)
        self.assert_refused(
            NESTED_FACTORS,
            clf,
            dataclasses.replace(w, inner=inner),
            ("witness", "inner"),
            "factor lists a vertex twice",
        )


class TestWitnessVerification:
    def test_all_named_witnesses_verify(self):
        for G in (
            complete_bipartite_racg(),
            cycle_graph_product(4, cyclic(3)),
            braid_like_artin_k4(),
            raag(["a", "b", "c", "d"], cycle_edges(["a", "b", "c", "d"])),
        ):
            v = classify(G)
            assert v.status == INCOHERENT
            out = verify_witness(G, v.witness)
            assert out, out.reason

    def test_join_embedding_broken_join_rejected(self):
        G = complete_bipartite_racg()
        v = classify(G)
        w = dataclasses.replace(v.witness, side_b=("d", "e"))
        # sides no longer disjoint independent triples backed by certs
        assert not verify_witness(G, w)

    def test_join_embedding_overlapping_sides_rejected(self):
        G = complete_bipartite_racg()
        v = classify(G)
        w = dataclasses.replace(v.witness, side_b=("a", "e", "f"))
        assert not verify_witness(G, w)

    def test_join_embedding_missing_cross_edge_rejected(self):
        G = complete_bipartite_racg()
        v = classify(G)
        H = racg(
            list("abcdef"),
            [(u, x) for u in "abc" for x in "def" if (u, x) != ("a", "d")],
        )
        assert not verify_witness(H, v.witness)

    def test_droms_cycle_requires_raag(self):
        w = DromsCycle(cycle=("v0", "v1", "v2", "v3"))
        assert verify_witness(raag([f"v{i}" for i in range(4)], cycle_edges([f"v{i}" for i in range(4)])), w)
        assert not verify_witness(cycle_racg(4), w)

    def test_droms_cycle_with_chord_rejected(self):
        G = raag(["a", "b", "c", "d"], cycle_edges(["a", "b", "c", "d"]) + [("a", "c")])
        w = DromsCycle(cycle=("a", "b", "c", "d"))
        assert not verify_witness(G, w)

    def test_wise_gordon_witness_kind_must_match(self):
        G = braid_like_artin_k4()
        v = classify(G)
        w = dataclasses.replace(v.witness, violation="forbidden_square")
        assert not verify_witness(G, w)

    def test_wise_gordon_requires_artin(self):
        v = classify(braid_like_artin_k4())
        assert not verify_witness(symmetric_coxeter_k4(), v.witness)

    def test_incoherent_factor_verifies_inner_on_induced_graph(self):
        k33_plus = racg(
            list("abcdefg"), [(u, v) for u in "abc" for v in "def"]
        )
        inner = classify(complete_bipartite_racg()).witness
        good = IncoherentFactor(vertices=tuple("abcdef"), inner=inner)
        assert verify_witness(k33_plus, good)
        bad = IncoherentFactor(vertices=tuple("abcde"), inner=inner)
        assert not verify_witness(k33_plus, bad)

    def test_unknown_vertices_rejected(self):
        G = cycle_racg(4)
        w = JoinEmbedding(
            side_a=("v0", "zz"),
            side_b=("v1", "v3"),
            cert_a=gc.F2Certificate(kind="free_pair", vertices=("v0", "zz")),
            cert_b=gc.F2Certificate(kind="free_pair", vertices=("v1", "v3")),
        )
        assert not verify_witness(G, w)


class TestWitnessText:
    @pytest.mark.parametrize(
        "G, text",
        [
            (
                complete_bipartite_racg(),
                "join_embedding {a,b,c} x {d,e,f} "
                "(certs: independent_triple {a,b,c}, independent_triple {d,e,f})",
            ),
            (braid_like_artin_k4(), "wise_gordon clique_big_labels {bl,tr,br}"),
            (raag(list("abcd"), cycle_edges(list("abcd"))), "droms_cycle {a,b,c,d}"),
            (
                graph_product_graph(
                    [(x, gc.Z) for x in "abcde"] + [("x", Z2)], cycle_edges(list("abcde"))
                ),
                "incoherent_factor {a,b,e,c,d}: droms_cycle {a,b,c,d,e}",
            ),
        ],
    )
    def test_each_kind_renders_itself(self, G, text):
        w = classify(G).witness
        assert w.text() == text
        assert verify_witness(G, w)

    def test_unknown_witness_type_rejected(self):
        out = verify_witness(cycle_racg(4), object())
        assert not out and out.reason == "unknown witness type object"


class TestWitnessScanHelper:
    def test_scan_finds_join_in_bipartite(self):
        w = witness_join_incoherence(complete_bipartite_racg())
        assert w is not None
        assert sorted(w.side_a) == ["a", "b", "c"]

    def test_scan_empty_on_square(self):
        assert witness_join_incoherence(cycle_racg(4)) is None

    def test_scan_requires_disjoint_joined_certs(self):
        # three independent Z3 vertices have certs but no join
        G = graph_product_graph([(x, cyclic(3)) for x in "abc"], [])
        assert witness_join_incoherence(G) is None


class TestRuleCrossCheck:
    def _classes(self):
        """One graph per isomorphism class: RACG and RAAG graphs on up to
        5 vertices, Coxeter graphs on up to 4 with labels 2, 3, 4 and at
        most 4 edges."""
        configs = (
            gc.CensusConfig(flavor="racg", max_vertices=5),
            gc.CensusConfig(flavor="raag", max_vertices=5),
            gc.CensusConfig(
                flavor="coxeter", max_vertices=4, edge_labels=(2, 3, 4), max_edges=4
            ),
        )
        classes = {}
        for config in configs:
            for G in gc.enumerate_graphs(config):
                classes.setdefault(gc.canonical_key(G), G)
        return list(classes.values())

    def test_disabling_any_step_never_flips_a_verdict(self):
        from graphcoherence.coherence_engine import STEP_NAMES

        graphs = self._classes()
        assert len(graphs) == 242
        baseline = Classifier()
        expected = [baseline.classify(G) for G in graphs]
        for G, v in zip(graphs, expected):
            assert_self_verifies(G, v)
        for step in STEP_NAMES:
            clf = Classifier(EngineConfig(disabled_rules=frozenset({step})))
            for G, base in zip(graphs, expected):
                v = clf.classify(G)
                assert {v.status, base.status} != {COHERENT, INCOHERENT}, (step, G)
                assert_self_verifies(G, v)
