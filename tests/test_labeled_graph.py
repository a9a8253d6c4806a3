"""Graph model, parsing, chordality and canonical labeling tests."""

from __future__ import annotations

import itertools
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphcoherence as gc
from graphcoherence import (
    AbelianGroupLabel,
    GraphValidationError,
    LabeledGraph,
    VertexCapError,
    Z,
    Z2,
    canonical_form,
    canonical_graph,
    canonical_key,
    cyclic,
    cycle_edges,
    detect_flavor,
    graph_to_jsonable,
    is_chordal,
    is_induced_chordless_cycle,
    join_factors,
    parse_graph,
    path_edges,
    raag,
    racg,
    shape_classify,
    verify_peo,
)
from graphcoherence.cli import main
from helpers import (
    brute_force_chordless_cycle,
    brute_force_is_chordal,
    brute_force_isomorphic,
    cycle_racg,
    diamond_racg,
    path_racg,
    prism_racg,
    random_chordal_graph,
    random_labeled_graph,
)

# A decimal integer longer than int() converts by default (4,300 digits).
LONG = "9" * 5000


class TestAbelianGroupLabel:
    def test_infinite_cyclic_and_order_two(self):
        assert Z.rank == 1 and Z.torsion == ()
        assert Z2.rank == 0 and Z2.torsion == (2,)
        assert Z.order() == float("inf")
        assert Z2.order() == 2

    def test_order_multiplies_torsion(self):
        g = AbelianGroupLabel(rank=0, torsion=(2, 4))
        assert g.order() == 8
        assert g.factor_count() == 2
        assert AbelianGroupLabel(rank=2, torsion=(3,)).factor_count() == 3

    def test_torsion_must_be_divisibility_chain(self):
        with pytest.raises(GraphValidationError):
            AbelianGroupLabel(rank=0, torsion=(4, 2))
        with pytest.raises(GraphValidationError):
            AbelianGroupLabel(rank=0, torsion=(2, 3))
        with pytest.raises(GraphValidationError):
            AbelianGroupLabel(rank=0, torsion=(1,))
        AbelianGroupLabel(rank=0, torsion=(2, 4, 8))  # fine

    def test_trivial_group_rejected(self):
        with pytest.raises(GraphValidationError):
            AbelianGroupLabel(rank=0, torsion=())

    def test_negative_rank_rejected(self):
        with pytest.raises(GraphValidationError):
            AbelianGroupLabel(rank=-1, torsion=(2,))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Z", Z),
            ("Z^3", AbelianGroupLabel(rank=3, torsion=())),
            ("Z_2", Z2),
            ("Z2", Z2),
            ("Z_6", cyclic(6)),
        ],
    )
    def test_parse_accepts_standard_forms(self, text, expected):
        assert AbelianGroupLabel.parse(text) == expected

    def test_products_come_from_jsonable_form(self):
        g = AbelianGroupLabel.from_jsonable({"rank": 1, "torsion": [2]})
        assert g == AbelianGroupLabel(rank=1, torsion=(2,))
        g = AbelianGroupLabel.from_jsonable({"rank": 2, "torsion": [2, 4]})
        assert g.factor_count() == 4

    @pytest.mark.parametrize("text", ["", "Q", "Z_1", "Z_0", "Z^-1", "Z x Z_2"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(GraphValidationError):
            AbelianGroupLabel.parse(text)

    def test_key_round_trip(self):
        for g in (Z, Z2, cyclic(9), AbelianGroupLabel(rank=2, torsion=(2, 6))):
            assert AbelianGroupLabel.from_jsonable(g.to_jsonable()) == g


class TestGraphConstruction:
    def test_build_basic_accessors(self):
        G = racg(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert G.n == 3 and G.m == 2
        assert G.neighbors("b") == ("a", "c")
        assert G.degree("b") == 2 and G.degree("a") == 1
        assert G.has_edge("a", "b") and not G.has_edge("a", "c")
        assert G.edge_label("a", "b") == 2
        assert G.edge_label("a", "c") is None
        assert G.group("a") == Z2

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate vertex"):
            LabeledGraph.build([("a", Z2), ("a", Z2)], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphValidationError, match="not a vertex"):
            racg(["a", "b"], [("a", "x")])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            racg(["a"], [("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicate edge"):
            racg(["a", "b"], [("a", "b"), ("b", "a")])

    def test_bad_edge_label_rejected(self):
        with pytest.raises(GraphValidationError, match="label"):
            LabeledGraph.build([("a", Z2), ("b", Z2)], [("a", "b", 1)])

    def test_induced_subgraph(self):
        G = diamond_racg()
        H = G.induced(["bottom", "left", "top"])
        assert H.vertices == ("bottom", "left", "top")
        assert H.m == 2
        assert H.has_edge("bottom", "left") and H.has_edge("left", "top")
        assert not H.has_edge("bottom", "top")

    def test_relabeled_and_permuted(self):
        G = path_racg(3)
        H = G.relabeled({"v0": "x", "v1": "y", "v2": "z"})
        assert H.vertices == ("x", "y", "z")
        assert H.has_edge("x", "y")
        P = G.permuted(["v2", "v0", "v1"])
        assert P.vertices == ("v2", "v0", "v1")
        assert P.has_edge("v0", "v1") and P.has_edge("v1", "v2")
        with pytest.raises(GraphValidationError):
            G.permuted(["v0", "v1"])

    def test_components(self):
        G = racg(["a", "b", "c", "d"], [("a", "b")])
        comps = G.components()
        assert [tuple(sorted(c)) for c in comps] == [("a", "b"), ("c",), ("d",)]
        assert not G.is_connected()
        assert cycle_racg(5).is_connected()

    def test_nonadjacent_pairs_order(self):
        G = cycle_racg(4)
        assert tuple(G.nonadjacent_pairs()) == (("v0", "v2"), ("v1", "v3"))


class TestFlavorDetection:
    def test_all_label_two_all_z2_is_racg(self):
        f = detect_flavor(cycle_racg(4))
        assert f.coxeter and f.graph_product and f.racg
        assert not f.artin and not f.raag

    def test_all_label_two_all_z_is_raag(self):
        f = detect_flavor(raag(["a", "b"], [("a", "b")]))
        assert f.artin and f.graph_product and f.raag
        assert not f.coxeter

    def test_big_labels_split_artin_from_coxeter(self):
        art = gc.artin_graph(["a", "b"], [("a", "b", 3)])
        cox = gc.coxeter_graph(["a", "b"], [("a", "b", 3)])
        fa, fc = detect_flavor(art), detect_flavor(cox)
        assert fa.artin and not fa.graph_product and not fa.coxeter
        assert fc.coxeter and not fc.graph_product and not fc.artin

    def test_general_groups_are_graph_product_only(self):
        G = gc.graph_product_graph([("a", cyclic(3)), ("b", Z)], [("a", "b")])
        f = detect_flavor(G)
        assert f.graph_product and not f.artin and not f.coxeter

    def test_big_label_with_general_groups_has_no_flavor(self):
        G = LabeledGraph.build([("a", cyclic(3)), ("b", cyclic(3))], [("a", "b", 3)])
        f = detect_flavor(G)
        assert f.tags() == ()
        assert not (f.graph_product or f.artin or f.coxeter)
        with pytest.raises(gc.UnsupportedFlavorError):
            gc.classify(G)


class TestParsing:
    def test_json_round_trip(self):
        G = gc.coxeter_graph(["a", "b", "c"], [("a", "b", 5), ("b", "c", 2)])
        text = json.dumps(graph_to_jsonable(G))
        H = parse_graph(text)
        assert H == G

    @staticmethod
    def _doc(flavor, ids, edges, groups=None):
        vertices = []
        for v in ids:
            entry = {"id": v}
            if groups and v in groups:
                entry["group"] = groups[v]
            vertices.append(entry)
        return json.dumps(
            {
                "flavor": flavor,
                "vertices": vertices,
                "edges": [{"u": u, "v": v, "label": m} for u, v, m in edges],
            }
        )

    def test_json_flavor_defaults(self):
        G = parse_graph(self._doc("artin", ["a", "b"], [("a", "b", 3)]))
        assert G.group("a") == Z
        G = parse_graph(self._doc("coxeter", ["a", "b"], [("a", "b", 3)]))
        assert G.group("a") == Z2

    def test_json_flavor_group_conflict_rejected(self):
        doc = self._doc(
            "coxeter", ["a", "b"], [("a", "b", 2)], groups={"a": {"rank": 1}}
        )
        with pytest.raises(GraphValidationError, match="conflicts"):
            parse_graph(doc)

    def test_json_racg_rejects_big_labels(self):
        with pytest.raises(GraphValidationError, match="label 2"):
            parse_graph(self._doc("racg", ["a", "b"], [("a", "b", 3)]))

    def test_json_graph_product_rejects_big_labels(self):
        doc = self._doc(
            "graph_product",
            ["a", "b"],
            [("a", "b", 3)],
            groups={"a": {"torsion": [3]}, "b": {"torsion": [3]}},
        )
        with pytest.raises(GraphValidationError, match="label 2"):
            parse_graph(doc)

    def test_json_group_required_without_flavor(self):
        doc = json.dumps({"vertices": [{"id": "a"}], "edges": []})
        with pytest.raises(GraphValidationError, match="no group"):
            parse_graph(doc)

    def test_json_unknown_field_rejected(self):
        doc = json.dumps({"flavor": "racg", "vertices": [{"id": "a"}], "extra": 1})
        with pytest.raises(GraphValidationError, match="extra"):
            parse_graph(doc)

    def test_bom_rejected(self):
        with pytest.raises(GraphValidationError, match="byte-order mark"):
            parse_graph("\ufeff{}")

    def test_bad_json_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph('{"flavor": "racg", "vertices": [')

    def test_dot_basic(self):
        text = """
        // four-cycle
        graph cycle {
            flavor = "racg";
            a -- b; b -- c;
            c -- d -- a;
        }
        """
        G = parse_graph(text)
        assert G.n == 4 and G.m == 4
        assert brute_force_chordless_cycle(G) is not None

    def test_dot_labels_and_groups(self):
        text = """
        graph g {
            flavor = "graph_product";
            a [group="Z_3"]; b [group="Z"];
            a -- b [label=2];
        }
        """
        G = parse_graph(text)
        assert G.group("a") == cyclic(3) and G.group("b") == Z
        assert G.edge_label("a", "b") == 2

    def test_dot_coxeter_edge_label(self):
        text = 'graph g { flavor="coxeter"; a -- b [label=5]; }'
        G = parse_graph(text)
        assert G.edge_label("a", "b") == 5
        assert detect_flavor(G).coxeter

    def test_dot_bad_statement_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph('graph g { flavor="racg"; a -> b; }')

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("a -> b", "malformed statement 'a -> b'"),
            ("a b", "malformed statement 'a b'"),
            ("a -- b [label=-3]", "label must be an integer >= 2, got -3"),
            ("a -- b [label=3.5]", "edge label must be an integer, got '3.5'"),
            ("a [group=Z^2]", "malformed attribute list [group=Z^2]"),
            ("a -- b [lable=3]", "unknown edge attributes: ['lable']"),
            ("a [grp=Z]", "unknown vertex attributes: ['grp']"),
            ("edge [label=3]; a -- b", "edge default attributes are not supported"),
        ],
        ids=["arrow", "two-ids", "negative-label", "fractional-label",
             "unquoted-group", "unknown-edge-attribute", "unknown-vertex-attribute",
             "edge-defaults"],
    )
    def test_dot_malformed_statement_exits_1(self, tmp_path, capsys, statement, message):
        """Each is rejected with one line, not read as some other graph."""
        doc = f'graph g {{ flavor="graph_product"; a [group="Z"]; b [group="Z"]; {statement}; }}'
        with pytest.raises(GraphValidationError, match=re.escape(message)):
            parse_graph(doc)
        path = tmp_path / "g.dot"
        path.write_text(doc)
        assert main(["classify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_dot_numeral_ids_and_attribute_separators(self):
        G = parse_graph('graph g { flavor="coxeter"; 1 -- 2 [ label = 5 , ]; 2 -- x [label="4"] }')
        assert G.vertices == ("1", "2", "x")
        assert G.edge_label("1", "2") == 5 and G.edge_label("2", "x") == 4

    @pytest.mark.parametrize(
        "semicolons, commas",
        [
            ("graph g { flavor=coxeter; a -- b [label=3; ]; }",
             "graph g { flavor=coxeter; a -- b [label=3, ]; }"),
            ("graph g { flavor=graph_product; a [group=Z; ]; }",
             "graph g { flavor=graph_product; a [group=Z, ]; }"),
            ("graph g { flavor=artin; a -- b [label=3; label=4]; b -- c }",
             "graph g { flavor=artin; a -- b [label=3, label=4]; b -- c }"),
        ],
        ids=["edge", "vertex", "two-pairs"],
    )
    def test_dot_semicolon_separates_attributes(self, tmp_path, capsys, semicolons, commas):
        """Inside an attribute list a ``;`` separates pairs, as a ``,``
        does, and does not end the statement."""
        assert parse_graph(semicolons) == parse_graph(commas)
        outputs = []
        for doc in (semicolons, commas):
            path = tmp_path / "g.dot"
            path.write_text(doc)
            assert main(["present", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_dot_unclosed_attribute_list_exits_1(self, tmp_path, capsys):
        doc = "graph g { flavor=coxeter; a -- b [label=3; b -- c; }"
        with pytest.raises(GraphValidationError, match="malformed statement 'a -- b \\[label=3;"):
            parse_graph(doc)
        path = tmp_path / "g.dot"
        path.write_text(doc)
        assert main(["present", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed statement")

    @pytest.mark.parametrize(
        "quoted, plain",
        [
            ('"x--y" -- c', "x -- c"),
            ('"a;b" -- c', "a -- c"),
            ('"p\\"q" -- "r // s" -- "t # u" -- "v /* w */"; "v /* w */" -- "p\\"q"', "p -- r -- t -- v; v -- p"),
        ],
        ids=["edge-operator", "semicolon", "escapes-and-comment-marks"],
    )
    def test_dot_quoted_ids_are_whole_tokens(self, tmp_path, capsys, quoted, plain):
        """A quoted ID may hold any character, a \\" standing for a quote;
        the graph is the one with plain IDs, renamed, and so is its verdict."""
        graphs, outputs = [], []
        for statements in (quoted, plain):
            doc = f"graph g {{ flavor=racg; {statements}; }}"
            graphs.append(parse_graph(doc))
            path = tmp_path / "g.dot"
            path.write_text(doc)
            assert main(["classify", "--format", "json", str(path)]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        G, H = graphs
        assert G.relabeled(dict(zip(G.vertices, H.vertices))) == H
        assert [v for v in G.vertices if '"' in v] in ([], ['p"q'])
        verdicts = [out["verdict"] for out in outputs]
        assert verdicts[0]["status"] == verdicts[1]["status"]
        assert verdicts[0]["proof"]["rule"] == verdicts[1]["proof"]["rule"]

    @pytest.mark.parametrize(
        "body",
        [
            "flavor=racg\n  a -- b\n  b -- c",
            "flavor=racg\n  a -- b [label=2]\n  b -- c",
            "flavor\n  = racg\n  a\n  -- b // comment\n  /* block */ b\n  -- c",
            "graph [flavor=racg]\n  a -- b\n  [label=3\n  label=2]\n  b -- c;",
        ],
        ids=["plain", "after-attribute-list", "continued-lines", "inside-attribute-list"],
    )
    def test_dot_statements_end_at_line_breaks(self, tmp_path, capsys, body):
        """The ``;`` is optional: a statement also ends at a line break
        between an ID or ``]`` and an ID, outside an attribute list."""
        with_semicolons = "graph g { flavor=racg; a -- b; b -- c; }"
        assert parse_graph(f"graph g {{\n  {body}\n}}") == parse_graph(with_semicolons)
        outputs = []
        for doc in (f"graph g {{\n  {body}\n}}", with_semicolons):
            path = tmp_path / "g.dot"
            path.write_text(doc)
            assert main(["classify", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "statements, message",
        [
            ("a -- b\n  a b", "malformed statement 'a b'"),
            ("a -- b\n  a -> b", "malformed statement 'a -> b'"),
            ("a -- b [label=3]\n  a -- b [lable=3]", "unknown edge attributes: ['lable']"),
            ("a -- b [label=3] b -- c", "malformed statement 'a -- b [label=3] b -- c'"),
        ],
        ids=["two-ids", "arrow", "unknown-edge-attribute", "same-line"],
    )
    def test_dot_line_breaks_keep_rejections(self, statements, message):
        doc = f'graph g {{\n  flavor="coxeter"\n  {statements}\n}}'
        with pytest.raises(GraphValidationError, match=re.escape(message)):
            parse_graph(doc)

    def test_neither_format_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph("hello world")

    @pytest.mark.parametrize(
        "json_doc, dot_doc, message",
        [
            (
                '{"flavor": "rag", "vertices": [{"id": "a"}]}',
                'graph g { flavor="rag"; a; }',
                "unknown flavor 'rag'; expected one of",
            ),
            (
                '{"vertices": [{"id": "a"}]}',
                "graph g { a; }",
                "vertex 'a' has no group and no flavor supplies one",
            ),
            (
                '{"flavor": "racg", "vertices": [{"id": "a", "group": "Z_3"}]}',
                'graph g { flavor="racg"; a [group="Z_3"]; }',
                "vertex 'a' group Z_3 conflicts with flavor 'racg'",
            ),
            (
                '{"flavor": "raag", "vertices": [{"id": "a"}, {"id": "b"}],'
                ' "edges": [{"u": "a", "v": "b", "label": 3}]}',
                'graph g { flavor="raag"; a -- b [label=3]; }',
                "flavor 'raag' requires label 2 on every edge, got 3 on 'a'--'b'",
            ),
        ],
        ids=["unknown-flavor", "no-group", "group-conflict", "big-label"],
    )
    def test_json_and_dot_report_a_flavor_defect_alike(self, json_doc, dot_doc, message):
        errors = []
        for doc in (json_doc, dot_doc):
            with pytest.raises(GraphValidationError) as info:
                parse_graph(doc)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert message in errors[0]


    @pytest.mark.parametrize(
        "doc",
        [
            '{"flavor": "coxeter", "vertices": [{"id": "a"}, {"id": "b"}],'
            ' "edges": [{"u": "a", "v": "b", "label": %s}]}' % LONG,
            '{"vertices": [{"id": "a", "group": {"torsion": [%s]}}]}' % LONG,
            '{"vertices": [{"id": "a", "group": "Z_%s"}]}' % LONG,
            'graph { a [group="Z_%s"]; }' % LONG,
            'graph { a [group="Z^%s"]; }' % LONG,
        ],
        ids=["json-label", "json-torsion", "json-group-string", "dot-torsion", "dot-rank"],
    )
    def test_integers_too_long_to_read_are_validation_errors(self, tmp_path, capsys, doc):
        """Python's int() refuses more than 4,300 digits; such a number
        is malformed input, reported in one line without its digits."""
        with pytest.raises(GraphValidationError) as excinfo:
            parse_graph(doc)
        assert LONG not in str(excinfo.value)
        path = tmp_path / "long.txt"
        path.write_text(doc)
        assert main(["classify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "9" * 100 not in lines[0] and "set_int_max_str_digits" not in lines[0]

class TestChordality:
    def test_named_graphs(self):
        assert is_chordal(path_racg(5))
        assert is_chordal(diamond_racg())
        assert is_chordal(racg(["a"], []))
        assert not is_chordal(cycle_racg(4))
        assert not is_chordal(cycle_racg(6))
        assert not is_chordal(prism_racg())

    def test_chordal_result_is_truthy_with_verified_peo(self):
        G = diamond_racg()
        res = is_chordal(G)
        assert res and res.chordal
        assert res.cycle is None
        assert verify_peo(G, res.peo)

    def test_non_chordal_result_carries_verified_cycle(self):
        G = cycle_racg(5)
        res = is_chordal(G)
        assert not res
        assert res.peo is None
        assert is_induced_chordless_cycle(G, res.cycle)
        assert len(res.cycle) == 5

    def test_peo_verifier_rejects_bad_orders(self):
        G = diamond_racg()
        assert not verify_peo(G, ("left", "bottom", "top", "right"))
        assert not verify_peo(G, ("bottom", "left", "right"))
        assert not verify_peo(G, ("bottom", "left", "right", "top", "top"))

    def test_cycle_checker_rejects_chorded_and_short(self):
        G = diamond_racg()
        assert not is_induced_chordless_cycle(G, ("bottom", "left", "top", "right"))
        assert not is_induced_chordless_cycle(G, ("bottom", "left", "top"))
        assert not is_induced_chordless_cycle(G, ("bottom", "left", "left", "right"))

    def test_exhaustive_against_oracle_up_to_five(self):
        ids = ["a", "b", "c", "d", "e"]
        pairs = list(itertools.combinations(ids, 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            G = racg(ids, edges)
            res = is_chordal(G)
            assert bool(res) == brute_force_is_chordal(G)
            if res:
                assert verify_peo(G, res.peo)
            else:
                assert is_induced_chordless_cycle(G, res.cycle)

    def test_random_against_oracle(self):
        rng = random.Random(20260819)
        for _ in range(300):
            G = random_labeled_graph(rng, max_n=8)
            res = is_chordal(G)
            assert bool(res) == brute_force_is_chordal(G)
            if res:
                assert verify_peo(G, res.peo)
            else:
                assert is_induced_chordless_cycle(G, res.cycle)

    def test_chordal_generator_always_chordal(self):
        rng = random.Random(99)
        for _ in range(100):
            assert is_chordal(random_chordal_graph(rng, 10))


class TestShape:
    def test_single_vertex_is_complete_and_discrete(self):
        s = shape_classify(racg(["a"], []))
        assert s.tag == "complete" and s.length is None

    def test_cycle(self):
        s = shape_classify(cycle_racg(4))
        assert s.tag == "cycle" and s.length == 4

    def test_path_and_tree(self):
        s = shape_classify(path_racg(4))
        assert s.tag == "path" and s.length == 3
        star = shape_classify(
            racg(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
        )
        assert star.tag == "tree" and star.length is None

    def test_discrete_and_other(self):
        assert shape_classify(racg(["a", "b", "c"], [])).tag == "discrete"
        assert shape_classify(diamond_racg()).tag == "other"

    def test_complete_beats_cycle(self):
        k3 = racg(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        s = shape_classify(k3)
        assert s.tag == "complete" and s.length is None

    def test_two_vertices_with_edge(self):
        s = shape_classify(racg(["a", "b"], [("a", "b")]))
        assert s.tag == "complete" and s.length is None


class TestJoinFactors:
    def test_square_splits_into_two_pairs(self):
        parts = join_factors(cycle_racg(4))
        assert sorted(tuple(sorted(p)) for p in parts) == [("v0", "v2"), ("v1", "v3")]

    def test_complete_graph_splits_into_singletons(self):
        k3 = racg(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert sorted(tuple(sorted(p)) for p in join_factors(k3)) == [("a",), ("b",), ("c",)]

    def test_discrete_graph_is_one_factor(self):
        parts = join_factors(racg(["a", "b", "c"], []))
        assert [tuple(sorted(p)) for p in parts] == [("a", "b", "c")]

    def test_complete_bipartite_splits_into_sides(self):
        from helpers import complete_bipartite_racg

        parts = join_factors(complete_bipartite_racg())
        assert sorted(tuple(sorted(p)) for p in parts) == [
            ("a", "b", "c"),
            ("d", "e", "f"),
        ]


def _random_permuted_relabeled(G: LabeledGraph, rng: random.Random) -> LabeledGraph:
    order = list(G.vertices)
    rng.shuffle(order)
    H = G.permuted(order)
    names = [f"w{rng.randrange(10**6)}_{i}" for i in range(G.n)]
    return H.relabeled(dict(zip(H.vertices, names)))


class TestCanonicalLabeling:
    def test_key_invariant_under_renaming_and_permutation(self):
        rng = random.Random(5)
        for _ in range(150):
            G = random_labeled_graph(
                rng, max_n=7, groups=(Z2, Z, cyclic(3)), labels=(2,)
            )
            H = _random_permuted_relabeled(G, rng)
            assert canonical_key(G) == canonical_key(H)

    def test_key_equality_matches_brute_force_isomorphism(self):
        rng = random.Random(11)
        graphs = [
            random_labeled_graph(rng, max_n=5, groups=(Z2, Z), labels=(2,))
            for _ in range(40)
        ]
        for G, H in itertools.combinations(graphs, 2):
            same_key = canonical_key(G) == canonical_key(H)
            assert same_key == brute_force_isomorphic(G, H)

    def test_exhaustive_four_vertex_classes(self):
        # unlabeled graphs on 1..4 vertices: 1, 2, 4, 11 classes
        counts = []
        for n in range(1, 5):
            ids = [f"v{i}" for i in range(n)]
            pairs = list(itertools.combinations(ids, 2))
            keys = set()
            for mask in range(1 << len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
                keys.add(canonical_key(racg(ids, edges)))
            counts.append(len(keys))
        assert counts == [1, 2, 4, 11]

    def test_placement_realizes_canonical_graph(self):
        rng = random.Random(3)
        for _ in range(60):
            G = random_labeled_graph(rng, max_n=6, groups=(Z2, cyclic(3)))
            key, placement = canonical_form(G)
            CG, placement2 = canonical_graph(G)
            assert placement2 == placement
            assert canonical_key(CG) == key
            assert CG.vertices == tuple(str(i) for i in range(G.n))
            H = G.permuted(placement).relabeled(
                {v: str(i) for i, v in enumerate(placement)}
            )
            assert H == CG

    def test_edge_labels_distinguish(self):
        a = gc.coxeter_graph(["a", "b"], [("a", "b", 3)])
        b = gc.coxeter_graph(["a", "b"], [("a", "b", 4)])
        assert canonical_key(a) != canonical_key(b)

    def test_groups_distinguish(self):
        a = racg(["a", "b"], [("a", "b")])
        b = gc.graph_product_graph([("a", Z2), ("b", cyclic(3))], [("a", "b")])
        assert canonical_key(a) != canonical_key(b)

    def test_symmetric_graphs_complete_quickly(self):
        ids = [f"v{i}" for i in range(12)]
        K12 = racg(ids, [(u, v) for u, v in itertools.combinations(ids, 2)])
        assert canonical_key(K12).startswith("12;")
        sides = ids[:6], ids[6:]
        K66 = racg(ids, [(u, v) for u in sides[0] for v in sides[1]])
        assert canonical_key(K66).startswith("12;")

    def test_vertex_cap_enforced(self):
        ids = [f"v{i}" for i in range(13)]
        G = racg(ids, [])
        with pytest.raises(VertexCapError):
            canonical_key(G)
        assert canonical_key(G, cap=13)

    @given(
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_property_key_stability(self, n, hyp_rng):
        rng = random.Random(hyp_rng.randrange(10**9))
        G = random_labeled_graph(rng, max_n=n, min_n=n, groups=(Z2, Z))
        H = _random_permuted_relabeled(G, rng)
        assert canonical_key(G) == canonical_key(H)
