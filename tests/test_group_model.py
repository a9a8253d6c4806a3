"""Coxeter diagram classification, finiteness, slenderness and
presentation tests.

Diagram types are cross-checked three independent ways: against numpy
eigenvalues of a cosine matrix built here from scratch, against its
60-digit mpmath signature, and against orders computed from explicit
permutation models.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import graphcoherence as gc
from graphcoherence import group_model
from graphcoherence.cli import main
from graphcoherence import (
    AbelianGroupLabel,
    F2Certificate,
    IndefiniteComponent,
    InternalInvariantError,
    LabeledGraph,
    UnsupportedFlavorError,
    Z,
    Z2,
    classify_components,
    contains_f2_certificate,
    coxeter_graph,
    cyclic,
    detect_flavor,
    emit_presentation,
    f2_certificate_valid,
    finiteness,
    graph_product_graph,
    graph_to_jsonable,
    is_finite,
    is_slender,
    join_factors,
    raag,
    racg,
)
from helpers import (
    complete_bipartite_racg,
    cycle_racg,
    diamond_racg,
    dihedral_order,
    even_signed_permutation_order,
    path_racg,
    prism_racg,
    signed_permutation_order,
    symmetric_group_order,
    symmetric_coxeter_k4,
    triangle_coxeter_333,
)
from test_separator_search import REGULAR_4_10

# ---------------------------------------------------------------------------
# diagram realizations: a diagram is given by bonds {pair: label} where the
# label is an int >= 3 or None for an unbonded (infinite) pair; realized as
# a Coxeter graph where non-bonded pairs get label-2 edges and infinite
# pairs get no edge.


def realize_diagram(r: int, bonds: dict[tuple[int, int], int | None]) -> LabeledGraph:
    ids = [f"g{i}" for i in range(r)]
    edges = []
    for i, j in itertools.combinations(range(r), 2):
        b = bonds.get((i, j), bonds.get((j, i), 2))
        if b is None:
            continue
        edges.append((ids[i], ids[j], b))
    return coxeter_graph(ids, edges)


def _path_bonds(labels: list[int]) -> dict[tuple[int, int], int]:
    return {(i, i + 1): m for i, m in enumerate(labels)}


def diagram_catalog() -> list[tuple[str, int, dict]]:
    """Independent construction of every finite and affine diagram of
    rank <= 8 (plus the rank-9 affine one for margin)."""

    cat: list[tuple[str, int, dict]] = []
    # finite families
    for n in range(1, 9):
        cat.append((f"A{n}", n, _path_bonds([3] * (n - 1))))
    for n in range(2, 9):
        cat.append((f"B{n}", n, _path_bonds([3] * (n - 2) + [4])))
    for n in range(4, 9):
        # chain c0..c_{n-2} with an extra leaf on c1
        bonds = _path_bonds([3] * (n - 2))
        bonds[(1, n - 1)] = 3
        cat.append((f"D{n}", n, bonds))
    for m in (5, 6, 7, 8):
        cat.append((f"I2({m})", 2, {(0, 1): m}))
    cat.append(("H3", 3, _path_bonds([5, 3])))
    cat.append(("H4", 4, _path_bonds([5, 3, 3])))
    cat.append(("F4", 4, _path_bonds([3, 4, 3])))
    for n in (6, 7, 8):
        # chain c0..c_{n-2} with an extra leaf on c2
        bonds = _path_bonds([3] * (n - 2))
        bonds[(2, n - 1)] = 3
        cat.append((f"E{n}", n, bonds))
    # affine families
    cat.append(("~A1", 2, {(0, 1): None}))
    for n in range(2, 8):
        bonds = _path_bonds([3] * (n - 1))
        bonds[(0, n)] = 3  # close the cycle through the extra node
        bonds[(n - 1, n)] = 3
        cat.append((f"~A{n}", n + 1, bonds))
    for n in range(2, 8):
        cat.append((f"~C{n}", n + 1, _path_bonds([4] + [3] * (n - 2) + [4])))
    for n in range(3, 8):
        # fork of two leaves, then a chain ending in a 4
        bonds = {(0, 2): 3, (1, 2): 3}
        for i in range(2, n):
            bonds[(i, i + 1)] = 3
        bonds[(n - 1, n)] = 4
        cat.append((f"~B{n}", n + 1, bonds))
    for n in range(4, 8):
        # two leaves on each end of the chain 2 .. n-2
        bonds = {(0, 2): 3, (1, 2): 3, (n - 1, n - 2): 3, (n, n - 2): 3}
        for i in range(2, n - 2):
            bonds[(i, i + 1)] = 3
        cat.append((f"~D{n}", n + 1, bonds))
    cat.append(("~G2", 3, _path_bonds([6, 3])))
    cat.append(("~F4", 5, _path_bonds([3, 4, 3, 3])))
    # three arms of two nodes each around hub 2
    bonds = _path_bonds([3] * 4)
    bonds[(2, 5)] = 3
    bonds[(5, 6)] = 3
    cat.append(("~E6", 7, bonds))
    bonds = _path_bonds([3] * 6)
    bonds[(3, 7)] = 3
    cat.append(("~E7", 8, bonds))
    bonds = _path_bonds([3] * 7)
    bonds[(2, 8)] = 3
    cat.append(("~E8", 9, bonds))
    return cat


def independent_cosine_eigs(G: LabeledGraph) -> np.ndarray:
    n = G.n
    B = np.ones((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = G.edge_label(G.vertices[i], G.vertices[j])
            B[i, j] = -1.0 if m is None else -math.cos(math.pi / m)
    return np.linalg.eigvalsh(B)


class TestDiagramClassification:
    def test_requires_coxeter_flavor(self):
        with pytest.raises(UnsupportedFlavorError):
            classify_components(raag(["a", "b"], [("a", "b")]))

    @pytest.mark.parametrize("name, r, bonds", diagram_catalog())
    def test_catalog_entry_matches_name(self, name, r, bonds):
        G = realize_diagram(r, bonds)
        comps = classify_components(G)
        assert len(comps) == 1
        vertices, t = comps[0]
        assert len(vertices) == r
        assert t.name == name

    @pytest.mark.parametrize("name, r, bonds", diagram_catalog())
    def test_catalog_entry_matches_eigenvalue_oracle(self, name, r, bonds):
        G = realize_diagram(r, bonds)
        eigs = independent_cosine_eigs(G)
        tol = 1e-9
        neg = int(np.sum(eigs < -tol))
        zero = int(np.sum(np.abs(eigs) <= tol))
        if name.startswith("~"):
            assert (neg, zero) == (0, 1)
        else:
            assert (neg, zero) == (0, 0) and eigs[0] > tol

    def test_indefinite_triangle_detected(self):
        # all pairwise unbonded: free product diagram on 3 generators
        G = racg(["a", "b", "c"], [])
        comps = classify_components(G)
        assert len(comps) == 1
        assert comps[0][1].kind == "indefinite"
        eigs = independent_cosine_eigs(G)
        assert eigs[0] < -1e-9

    def test_components_split_on_label_two_edges(self):
        # square: diagram components are the two diagonals
        G = cycle_racg(4)
        comps = classify_components(G)
        assert sorted(tuple(sorted(vs)) for vs, _ in comps) == [
            ("v0", "v2"),
            ("v1", "v3"),
        ]
        assert all(t.name == "~A1" for _, t in comps)

    def test_heavy_k4_is_a4(self):
        comps = classify_components(symmetric_coxeter_k4())
        assert len(comps) == 1
        assert comps[0][1].name == "A4"

    def test_triangle_333_is_affine_a2(self):
        comps = classify_components(triangle_coxeter_333())
        assert comps[0][1].name == "~A2"
        eigs = independent_cosine_eigs(triangle_coxeter_333())
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)

    def test_a13_above_the_default_vertex_cap(self):
        # A diagram is keyed at its own vertex count, so a component
        # above the default canonical-form cap of 12 still matches.
        G = realize_diagram(13, _path_bonds([3] * 12))
        fin = finiteness(G)
        assert fin.finite and fin.order == 87178291200 == math.factorial(14)
        assert [t.name for _, t in fin.components] == ["A13"]


@st.composite
def coxeter_graphs(draw, max_vertices=8, labels=(None, 2, 2, 2, 3, 3, 4, 5, 6)):
    """All-Z2 graphs with an edge label or no edge (None) per pair, drawn
    from ``labels``: by default 2..6, label 2 weighted up, so finite and
    affine components show up."""
    n = draw(st.integers(1, max_vertices))
    ids = [f"g{i}" for i in range(n)]
    edges = []
    for u, v in itertools.combinations(ids, 2):
        m = draw(st.sampled_from(labels))
        if m is not None:
            edges.append((u, v, m))
    return coxeter_graph(ids, edges)


@settings(max_examples=100)
@given(G=coxeter_graphs(), data=st.data())
def test_component_types_survive_reorder_and_renaming(G, data):
    order = data.draw(st.permutations(G.vertices))
    names = data.draw(st.permutations([f"x{i}" for i in range(G.n)]))
    H = G.permuted(order).relabeled(dict(zip(order, names)))

    def types(K):
        return sorted((len(vs), t.name) for vs, t in classify_components(K))

    assert types(H) == types(G)
    assert finiteness(H).order == finiteness(G).order


# Labels whose cosine is within 1e-9 of 1: in a complete diagram of rank 3
# or more, the elimination meets a pivot near 0 before its last step.
HUGE_LABELS = (70249, 10**6, 10**12, 2**60 + 1)


class TestDiagramKind:
    @settings(max_examples=150)
    @given(
        G=st.one_of(
            coxeter_graphs(9, (None, 2, 2, 2, 3, 4, 5, 6, 7, 8) + HUGE_LABELS),
            coxeter_graphs(9, (2, 2, 2, 3, 4, 5, 6, 7, 8) + HUGE_LABELS),
        )
    )
    def test_kind_agrees_with_the_independent_oracle(self, G):
        """On every join factor of rank 3 or more, ``_diagram_kind`` of
        the factor's position-labelled pairs equals the kind read from
        the eigenvalues of the test's own matrix."""
        for comp in join_factors(G):
            if len(comp) < 3:
                continue
            pos = {G.index(v): k for k, v in enumerate(comp)}
            labels = [(pos[i], pos[j], m) for i, j, m in G.edges if i in pos and j in pos]
            assert group_model._diagram_kind(len(comp), labels) == spectrum_kind(
                G.induced(comp)
            )


class TestOrders:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_a_family_against_adjacent_transposition_model(self, n):
        G = realize_diagram(n, _path_bonds([3] * (n - 1)))
        res = is_finite(G)
        assert res.finite
        assert res.order == symmetric_group_order(n) == math.factorial(n + 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_b_family_against_signed_permutation_model(self, n):
        G = realize_diagram(n, _path_bonds([3] * (n - 2) + [4]))
        res = is_finite(G)
        assert res.finite
        assert res.order == signed_permutation_order(n) == 2**n * math.factorial(n)

    def test_d4_against_even_signed_model(self):
        bonds = _path_bonds([3, 3])
        bonds[(1, 3)] = 3
        res = is_finite(realize_diagram(4, bonds))
        assert res.finite and res.order == even_signed_permutation_order(4) == 192

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_dihedral_orders(self, m):
        res = is_finite(coxeter_graph(["a", "b"], [("a", "b", m)]))
        assert res.finite and res.order == dihedral_order(m) == 2 * m

    def test_exceptional_orders(self):
        frozen = {"H3": 120, "H4": 14400, "F4": 1152,
                  "E6": 51840, "E7": 2903040, "E8": 696729600}
        for name, r, bonds in diagram_catalog():
            if name in frozen:
                res = is_finite(realize_diagram(r, bonds))
                assert res.finite and res.order == frozen[name], name

    def test_order_multiplies_over_components(self):
        ids = ["a", "b", "c", "d"]
        K4 = racg(ids, [(u, v) for u, v in itertools.combinations(ids, 2)])
        res = is_finite(K4)
        assert res.finite and res.order == 16
        assert all(t.name == "A1" for _, t in res.components)

    def test_heavy_k4_has_order_120(self):
        res = is_finite(symmetric_coxeter_k4())
        assert res.finite and res.order == 120 == symmetric_group_order(4)


class TestFiniteness:
    @pytest.mark.parametrize("m", [70_249, 10**6, 10**12])
    def test_dihedral_with_a_huge_label_is_finite(self, m):
        """1 - cos(pi/m) rounds to within the eigenvalue tolerance of 0
        from m = 70,249 on, but the spectrum is exactly positive."""
        G = coxeter_graph(["a", "b"], [("a", "b", m)])
        (_, t), = classify_components(G)
        assert t.name == f"I2({m})" and t.kind == "finite"
        res = finiteness(G)
        assert res.finite and res.order == 2 * m
        assert gc.classify(G).status == "COHERENT"

    def test_two_unbonded_generators_are_affine(self):
        (_, t), = classify_components(racg(["a", "b"], []))
        assert t.name == "~A1" and t.kind == "affine"

    def test_racg_with_nonedge_is_infinite(self):
        res = is_finite(path_racg(3))
        assert not res.finite and res.order == math.inf

    def test_graph_product_complete_finite(self):
        G = graph_product_graph(
            [("a", cyclic(3)), ("b", cyclic(4))], [("a", "b")]
        )
        res = finiteness(G)
        assert res.finite and res.order == 12 and res.mode == "graph_product"

    def test_graph_product_with_z_factor_infinite(self):
        G = graph_product_graph([("a", Z), ("b", cyclic(3))], [("a", "b")])
        assert not finiteness(G).finite

    def test_graph_product_incomplete_infinite(self):
        G = graph_product_graph([("a", cyclic(3)), ("b", cyclic(3))], [])
        assert not finiteness(G).finite

    def test_artin_always_infinite(self):
        res = finiteness(gc.artin_graph(["a", "b"], [("a", "b", 3)]))
        assert not res.finite and res.mode == "artin"

    def test_finiteness_dispatches_to_coxeter(self):
        assert finiteness(symmetric_coxeter_k4()).order == 120


class TestF2Certificates:
    def test_pair_cert_found_first(self):
        G = graph_product_graph(
            [("a", cyclic(3)), ("b", cyclic(3)), ("c", cyclic(3))], []
        )
        cert = contains_f2_certificate(G)
        assert cert.kind == "free_pair" and cert.vertices == ("a", "b")
        assert f2_certificate_valid(G, cert)

    def test_triple_cert_when_orders_too_small(self):
        G = racg(["a", "b", "c"], [])
        cert = contains_f2_certificate(G)
        assert cert.kind == "independent_triple" and cert.vertices == ("a", "b", "c")
        assert f2_certificate_valid(G, cert)

    def test_no_cert_in_square_racg(self):
        assert contains_f2_certificate(cycle_racg(4)) is None

    def test_no_cert_in_complete_graph(self):
        G = graph_product_graph(
            [("a", cyclic(9)), ("b", cyclic(9))], [("a", "b")]
        )
        assert contains_f2_certificate(G) is None

    def test_raag_pair_cert(self):
        cert = contains_f2_certificate(raag(["a", "b"], []))
        assert cert.kind == "free_pair"

    def test_validity_rejections(self):
        G = cycle_racg(4)
        assert not f2_certificate_valid(
            G, F2Certificate(kind="free_pair", vertices=("v0", "v2"))
        )  # orders too small
        assert not f2_certificate_valid(
            G, F2Certificate(kind="free_pair", vertices=("v0", "v1"))
        )  # adjacent
        assert not f2_certificate_valid(
            G, F2Certificate(kind="independent_triple", vertices=("v0", "v1", "v2"))
        )  # contains an edge
        assert not f2_certificate_valid(
            G, F2Certificate(kind="independent_triple", vertices=("v0", "x", "y"))
        )  # unknown ids
        assert not f2_certificate_valid(
            G, F2Certificate(kind="free_pair", vertices=("v0", "v0"))
        )  # repeats


class TestSlenderness:
    def test_path3_racg(self):
        s = is_slender(path_racg(3))
        assert s.verdict == "slender"
        assert s.affine_factor_count == 1 and s.finite_factor_count == 1
        # the nonadjacent end pair forms the affine piece
        affine = next(f for f in s.factors if f.kind == "affine")
        assert sorted(affine.vertices) == ["v0", "v2"]

    def test_square_racg_two_affine_pieces(self):
        s = is_slender(cycle_racg(4))
        assert s.verdict == "slender"
        assert s.affine_factor_count == 2
        assert s.finite_factor_count == 0 and s.abelian_factor_count == 0

    def test_diamond_racg(self):
        s = is_slender(diamond_racg())
        assert s.verdict == "slender"
        assert s.affine_factor_count == 1 and s.finite_factor_count == 2

    def test_pentagon_racg_not_slender(self):
        s = is_slender(cycle_racg(5))
        assert s.verdict == "not_slender"
        assert s.reason == "indefinite-diagram-component"
        assert isinstance(s.obstruction, IndefiniteComponent)
        assert len(s.obstruction.vertices) == 5

    def test_complete_bipartite_not_slender(self):
        s = is_slender(complete_bipartite_racg())
        assert s.verdict == "not_slender"
        assert isinstance(s.obstruction, IndefiniteComponent)
        assert sorted(s.obstruction.vertices) == ["a", "b", "c"]

    def test_prism_not_slender(self):
        assert is_slender(prism_racg()).verdict == "not_slender"

    def test_finite_coxeter_is_slender(self):
        s = is_slender(symmetric_coxeter_k4())
        assert s.verdict == "slender"
        assert s.finite_factor_count == 1 and s.factors[0].type.name == "A4"

    def test_triangle_333_affine_slender(self):
        s = is_slender(triangle_coxeter_333())
        assert s.verdict == "slender" and s.affine_factor_count == 1

    def test_raag_complete_is_abelian_slender(self):
        G = raag(["a", "b"], [("a", "b")])
        s = is_slender(G)
        assert s.verdict == "slender" and s.abelian_factor_count == 2

    def test_raag_with_free_part_not_slender(self):
        s = is_slender(raag(["a", "b"], []))
        assert s.verdict == "not_slender"
        assert isinstance(s.obstruction, F2Certificate)

    def test_graph_product_mixed_join(self):
        # a Z6 vertex joined to both ends of an unbonded Z2 pair
        G = graph_product_graph(
            [("x", cyclic(6)), ("a", Z2), ("b", Z2)],
            [("x", "a"), ("x", "b")],
        )
        s = is_slender(G)
        assert s.verdict == "slender"
        assert s.abelian_factor_count == 1 and s.affine_factor_count == 1

    def test_z3_square_not_slender(self):
        G = graph_product_graph(
            [(v, cyclic(3)) for v in ["a", "b", "c", "d"]],
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        )
        s = is_slender(G)
        assert s.verdict == "not_slender"
        assert s.obstruction.kind == "free_pair"

    def test_braid_pair_unknown(self):
        s = is_slender(gc.artin_graph(["a", "b"], [("a", "b", 3)]))
        assert s.verdict == "unknown" and s.reason == "artin-label-ge-3"

    def test_artin_with_independent_pair_not_slender(self):
        G = gc.artin_graph(["a", "b", "c"], [("a", "b", 3)])
        s = is_slender(G)
        assert s.verdict == "not_slender"
        assert s.obstruction.kind == "free_pair"

    def test_unsupported_flavor_raises(self):
        G = LabeledGraph.build(
            [("a", cyclic(3)), ("b", cyclic(3))], [("a", "b", 3)]
        )
        with pytest.raises(UnsupportedFlavorError):
            is_slender(G)


class TestPresentations:
    @pytest.mark.parametrize(
        "G, expected",
        [
            (racg(["a"], []), "< a | a^2 >"),
            (racg(["a", "b"], [("a", "b")]), "< a, b | a^2, b^2, (ab)^2 >"),
            (
                coxeter_graph(["a", "b"], [("a", "b", 5)]),
                "< a, b | a^2, b^2, (ab)^5 >",
            ),
            (gc.artin_graph(["a", "b"], [("a", "b", 3)]), "< a, b | aba = bab >"),
            (gc.artin_graph(["a", "b"], [("a", "b", 4)]), "< a, b | abab = baba >"),
            (raag(["a", "b"], [("a", "b")]), "< a, b | ab = ba >"),
            (
                raag(["a", "b", "c"], [("a", "b"), ("b", "c")]),
                "< a, b, c | ab = ba, bc = cb >",
            ),
            (
                graph_product_graph(
                    [("a", cyclic(3)), ("b", cyclic(3))], [("a", "b")]
                ),
                "< a, b | a^3, b^3, [a, b] >",
            ),
            (
                graph_product_graph(
                    [("a", AbelianGroupLabel(rank=1, torsion=(2,)))], []
                ),
                "< a_1, a_2 | a_2^2, [a_1, a_2] >",
            ),
            (
                gc.artin_graph(["s1", "s2"], [("s1", "s2", 3)]),
                "< s1, s2 | s1 s2 s1 = s2 s1 s2 >",
            ),
        ],
    )
    def test_frozen_presentations(self, G, expected):
        assert emit_presentation(G) == expected

    def test_free_group_has_no_relations(self):
        text = emit_presentation(raag(["a", "b"], []))
        assert text == "< a, b | >"

    @pytest.mark.parametrize(
        "ids, m, relation",
        [
            (["a", "b"], 10**12, "(ab)^500000000000 = (ba)^500000000000"),
            (["a", "b"], 10**12 + 1, "(ab)^500000000000 a = (ba)^500000000000 b"),
            (["a", "b"], 10**8 + 1, "(ab)^50000000 a = (ba)^50000000 b"),
            (["s1", "s2"], 10**8 + 2, "(s1 s2)^50000001 = (s2 s1)^50000001"),
            (["s1", "s2"], 10**8 + 3, "(s1 s2)^50000001 s1 = (s2 s1)^50000001 s2"),
        ],
    )
    def test_large_artin_labels_use_powers(self, ids, m, relation):
        G = gc.artin_graph(ids, [(*ids, m)])
        assert emit_presentation(G) == f"< {', '.join(ids)} | {relation} >"

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_power_form_starts_above_the_literal_limit(self, monkeypatch, m):
        G = gc.artin_graph(["a", "b"], [("a", "b", m)])
        literal = emit_presentation(G)
        monkeypatch.setattr(group_model, "LITERAL_BRAID_MAX", 5)
        text = emit_presentation(G)
        if m <= 5:
            assert text == literal
        else:
            assert text == {6: "< a, b | (ab)^3 = (ba)^3 >", 7: "< a, b | (ab)^3 a = (ba)^3 b >"}[m]
            # The power form spells the same words as the literal one.
            left, right = literal[len("< a, b | ") : -len(" >")].split(" = ")
            assert left == "ab" * (m // 2) + "a" * (m % 2)
            assert right == "ba" * (m // 2) + "b" * (m % 2)


class TestInternalConsistency:
    def test_template_sweep_never_raises(self):
        # classify_components cross-checks every match against the
        # spectrum; a full catalog sweep passing means table and oracle
        # agree from the inside as well
        for name, r, bonds in diagram_catalog():
            classify_components(realize_diagram(r, bonds))

    def test_direct_sums_of_catalog_entries(self):
        # two disjoint pieces classify independently
        a = realize_diagram(3, _path_bonds([3, 3]))
        ids = [f"h{i}" for i in range(2)]
        G = LabeledGraph.build(
            [(v, Z2) for v in list(a.vertices) + ids],
            [(u, v, a.edge_label(u, v)) for u, v in itertools.combinations(a.vertices, 2) if a.edge_label(u, v)]
            + [(ids[0], ids[1], 4)]
            + [(u, v, 2) for u in a.vertices for v in ids],
        )
        comps = classify_components(G)
        assert sorted(t.name for _, t in comps) == ["A3", "B2"]


# ---------------------------------------------------------------------------
# the checked template table: each template's spectrum is checked once, when
# its rank is first built, and each component is typed by a key lookup


def disjoint_join(*graphs: LabeledGraph) -> LabeledGraph:
    """The Coxeter graph whose diagram is the disjoint union of the
    diagrams of ``graphs``: their vertices renamed apart, every pair from
    different graphs joined by a label-2 edge."""
    parts = [
        G.relabeled({v: f"{k}{v}" for v in G.vertices}) for k, G in enumerate(graphs)
    ]
    ids = [v for P in parts for v in P.vertices]
    edges = [(u, v, m) for P in parts for u, v, m in P.edge_list()]
    for P, Q in itertools.combinations(parts, 2):
        edges += [(u, v, 2) for u in P.vertices for v in Q.vertices]
    return coxeter_graph(ids, edges)


def eigenvalue_kind(eigs, tol) -> str:
    """finite, affine or indefinite, from a connected diagram's cosine
    matrix eigenvalues, counting those within ``tol`` of 0 as zero."""
    if any(e < -tol for e in eigs):
        return "indefinite"
    zero = sum(1 for e in eigs if abs(e) <= tol)
    return {0: "finite", 1: "affine"}.get(zero, f"corank {zero}")


def spectrum_kind(G: LabeledGraph) -> str:
    """finite, affine or indefinite, from the test's own eigenvalues."""
    return eigenvalue_kind(independent_cosine_eigs(G), 1e-9)


@st.composite
def graph_products(draw, max_vertices=8):
    """Graph products of Z, Z2 and Z3 vertex groups, mostly Z2 and
    mostly joined, so that graphs without an F2 certificate have
    multi-vertex factors to type."""
    n = draw(st.integers(1, max_vertices))
    ids = [f"p{i}" for i in range(n)]
    groups = [draw(st.sampled_from([Z2, Z2, Z2, Z, cyclic(3)])) for _ in ids]
    edges = [
        (u, v, 2)
        for u, v in itertools.combinations(ids, 2)
        if draw(st.sampled_from([True, True, False]))
    ]
    return LabeledGraph.build(list(zip(ids, groups)), edges)


@pytest.fixture
def fresh_templates():
    group_model._templates.cache_clear()
    yield
    group_model._templates.cache_clear()


@pytest.mark.usefixtures("fresh_templates")
class TestTemplateTable:
    def test_corrupted_template_raises(self, monkeypatch, tmp_path, capsys):
        real = group_model._template_bonds

        def corrupted(r):
            return [
                (t, _path_bonds([5, 4]) if t.name == "H3" else bonds) for t, bonds in real(r)
            ]

        monkeypatch.setattr(group_model, "_template_bonds", corrupted)
        H3 = realize_diagram(3, _path_bonds([5, 3]))
        with pytest.raises(InternalInvariantError, match="diagram template H3 has spectrum"):
            finiteness(H3)
        path = tmp_path / "h3.json"
        path.write_text(json.dumps(graph_to_jsonable(H3)))
        assert main(["finiteness", str(path)]) == 2
        assert capsys.readouterr().err.startswith("internal error: diagram template H3 ")

    def test_deleted_template_raises(self, monkeypatch):
        real = group_model._template_bonds
        monkeypatch.setattr(
            group_model,
            "_template_bonds",
            lambda r: [(t, bonds) for t, bonds in real(r) if t.name != "F4"],
        )
        assert classify_components(realize_diagram(4, _path_bonds([3, 3, 3])))[0][1].name == "A4"
        F4 = realize_diagram(4, _path_bonds([3, 4, 3]))
        with pytest.raises(InternalInvariantError, match="not actually indefinite"):
            classify_components(F4)
        with pytest.raises(InternalInvariantError, match="not actually indefinite"):
            is_slender(F4)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(G=st.one_of(coxeter_graphs(), graph_products()))
    def test_component_kinds_agree_with_the_spectrum(self, G):
        typed = list(classify_components(G)) if detect_flavor(G).coxeter else []
        cert = is_slender(G)
        typed += [(f.vertices, f.type) for f in cert.factors or () if f.type is not None]
        for vertices, t in typed:
            assert t.kind == spectrum_kind(G.induced(vertices))
        if isinstance(cert.obstruction, IndefiniteComponent):
            assert spectrum_kind(G.induced(cert.obstruction.vertices)) == "indefinite"

    def test_matched_components_run_no_eigensolver(self, monkeypatch):
        calls = []
        real = group_model._diagram_kind
        monkeypatch.setattr(
            group_model, "_diagram_kind", lambda r, labels: calls.append(r) or real(r, labels)
        )
        A4 = realize_diagram(4, _path_bonds([3, 3, 3]))
        G = disjoint_join(A4, triangle_coxeter_333())
        for _ in range(2):
            assert [t.name for _, t in classify_components(G)] == ["A4", "~A2"]
            assert is_slender(G).affine_factor_count == 1
            assert finiteness(G).order == math.inf
        # Only the table build eliminates, once per template of rank 3 and 4.
        assert sorted(calls) == [r for r in (3, 4) for _ in group_model._templates(r)]
        calls.clear()
        # A component with a missing pair is indefinite by the lemma alone.
        assert classify_components(racg(["a", "b", "c"], []))[0][1].kind == "indefinite"
        assert calls == []
        # A complete unmatched component eliminates its own block.
        K4 = realize_diagram(4, dict.fromkeys(itertools.combinations(range(4), 2), 3))
        assert classify_components(K4)[0][1].kind == "indefinite"
        assert calls == [4]


def test_right_angled_passes_run_no_elimination(tmp_path, monkeypatch, capsys):
    """Once the template tables are built, a RACG census and a search on
    a 4-regular RACG of the classify-search workload type every
    component by the lemma or the table."""
    for r in range(3, 11):
        group_model._templates(r)
    calls = []
    real = group_model._diagram_kind
    monkeypatch.setattr(
        group_model, "_diagram_kind", lambda r, labels: calls.append(r) or real(r, labels)
    )
    assert main(["census", "--flavor", "racg", "--max-vertices", "5"]) == 0
    path = tmp_path / "regular.json"
    G = racg(10, [(f"v{i}", f"v{j}") for i, j in REGULAR_4_10[0]])
    path.write_text(json.dumps(graph_to_jsonable(G)))
    assert main(["classify", str(path)]) == 0
    assert "verdict: UNKNOWN" in capsys.readouterr().out
    assert calls == []


def mpmath_kind(G: LabeledGraph) -> str:
    """finite, affine or indefinite, from the signature of G's cosine
    matrix at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        n = G.n
        B = mpmath.matrix(n, n)
        for i in range(n):
            B[i, i] = 1
            for j in range(i + 1, n):
                m = G.edge_label(G.vertices[i], G.vertices[j])
                B[i, j] = B[j, i] = -1 if m is None else -mpmath.cos(mpmath.pi / m)
        return eigenvalue_kind(mpmath.eigsy(B, eigvals_only=True), mpmath.mpf(10) ** -40)


@given(
    G=st.one_of(
        coxeter_graphs(9, (None, 2, 2, 2, 3, 4, 5, 6, 7, 8) + HUGE_LABELS),
        coxeter_graphs(9, (2, 2, 2, 3, 4, 5, 6, 7, 8) + HUGE_LABELS),
    )
)
def test_component_kinds_agree_with_a_60_digit_signature(G):
    """Every component kind, whether from the lemma, the table or the
    elimination, is the kind of the component's own cosine matrix,
    computed in 60-digit arithmetic without ``_diagram_kind``."""
    for vertices, t in classify_components(G):
        assert t.kind == mpmath_kind(G.induced(vertices))
