"""Separator walk, slenderness pruning and amalgam-search oracles."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import (
    CensusConfig,
    LabeledGraph,
    Z,
    Z2,
    canonical_key,
    classify,
    cyclic,
    detect_flavor,
    enumerate_graphs,
    enumerate_separator_splits,
    is_slender,
    racg,
    slender_separators,
    walk_separators,
)
from graphcoherence.coherence_engine import STEPS, UNKNOWN, UnknownNote, Verdict, to_jsonable
from graphcoherence.decomposition import mask_vertices, vertex_mask
from graphcoherence.group_model import (
    NOT_SLENDER,
    SLENDER,
    UnsupportedFlavorError,
    first_f2_certificate,
    order_two_mask,
)

# The five random 4-regular 10-vertex graphs of the classify-search
# benchmark workload at its default seed (pairing model), as edge lists
# over ids v0..v9.
REGULAR_4_10 = (
    [(0, 1), (0, 2), (0, 3), (0, 9), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 8),
     (3, 4), (3, 6), (4, 7), (4, 8), (5, 6), (5, 7), (6, 9), (7, 8), (7, 9), (8, 9)],
    [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 8), (2, 6), (2, 8), (3, 4),
     (3, 6), (3, 7), (4, 5), (4, 9), (5, 7), (5, 9), (6, 7), (6, 8), (7, 9), (8, 9)],
    [(0, 1), (0, 2), (0, 4), (0, 8), (1, 2), (1, 8), (1, 9), (2, 3), (2, 5), (3, 4),
     (3, 5), (3, 8), (4, 6), (4, 7), (5, 6), (5, 9), (6, 7), (6, 9), (7, 8), (7, 9)],
    [(0, 1), (0, 2), (0, 5), (0, 9), (1, 2), (1, 6), (1, 8), (2, 5), (2, 9), (3, 4),
     (3, 6), (3, 7), (3, 9), (4, 5), (4, 6), (4, 8), (5, 7), (6, 8), (7, 8), (7, 9)],
    [(0, 3), (0, 4), (0, 6), (0, 8), (1, 2), (1, 7), (1, 8), (1, 9), (2, 3), (2, 4),
     (2, 7), (3, 5), (3, 6), (4, 5), (4, 7), (5, 6), (5, 9), (6, 8), (7, 9), (8, 9)],
)


def _racg(n: int, edges) -> LabeledGraph:
    return racg(n, [(f"v{i}", f"v{j}") for i, j in edges])


# The vertex groups of the graph-product graphs below: Z2 and Z3 make
# free pairs between finite groups, Z free pairs with anything.
Z3 = cyclic(3)
_PRODUCT_GROUPS = (Z2, Z3, Z)


@st.composite
def connected_graphs(
    draw, max_n: int, flavors=("racg", "raag", "coxeter", "artin", "graph_product")
):
    """Connected graphs of every flavor: a random spanning tree plus
    random extra edges, labeled 2 in right-angled flavors and graph
    products and 2..5 otherwise.  A graph product draws each vertex
    group from Z2, Z3 and Z."""
    n = draw(st.integers(2, max_n))
    flavor = draw(st.sampled_from(flavors))
    pairs = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    pairs |= {p for p in itertools.combinations(range(n), 2) if draw(st.booleans())}
    labels = (2, 3, 4, 5) if flavor in ("coxeter", "artin") else (2,)
    if flavor == "graph_product":
        groups = [draw(st.sampled_from(_PRODUCT_GROUPS)) for _ in range(n)]
    else:
        groups = [Z if flavor in ("raag", "artin") else Z2] * n
    return LabeledGraph.build(
        [(f"v{i}", group) for i, group in enumerate(groups)],
        [(f"v{i}", f"v{j}", draw(st.sampled_from(labels))) for i, j in sorted(pairs)],
    )


# -- the separator walk ---------------------------------------------------------


@settings(max_examples=60)
@given(connected_graphs(9, flavors=("racg",)))
def test_walk_matches_networkx(G):
    nx = pytest.importorskip("networkx")
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from((i, j) for i, j, _ in G.edges)
    expected = []
    if not G.is_complete():
        for size in range(1, G.n - 1):
            for sep in itertools.combinations(range(G.n), size):
                comps = sorted(nx.connected_components(H.subgraph(set(range(G.n)) - set(sep))), key=min)
                if len(comps) >= 2:
                    expected.append((sep, [tuple(sorted(c)) for c in comps]))
    bits = lambda mask: tuple(i for i in range(G.n) if mask >> i & 1)  # noqa: E731
    assert [(bits(s), [bits(c) for c in cs]) for s, cs in walk_separators(G)] == expected


def test_walk_skips_disconnected_and_complete_graphs():
    assert list(walk_separators(racg(3, [("v0", "v1")]))) == []
    assert list(walk_separators(racg(3, [("v0", "v1"), ("v1", "v2"), ("v0", "v2")]))) == []


# -- obstruction pruning --------------------------------------------------------


def _classes(graphs):
    seen = {}
    for G in graphs:
        seen.setdefault(canonical_key(G), G)
    return list(seen.values())


def _artin_with_label_3(max_n: int):
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for labels in itertools.product((None, 2, 3), repeat=len(pairs)):
            if 3 in labels:
                yield LabeledGraph.build(
                    [(f"v{i}", Z) for i in range(n)],
                    [(f"v{i}", f"v{j}", m) for (i, j), m in zip(pairs, labels) if m],
                )


def _graph_products(max_n: int):
    """Every graph with vertex groups Z2, Z3 and Z, all labels 2, on
    1..``max_n`` vertices."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for groups in itertools.product(_PRODUCT_GROUPS, repeat=n):
            for present in itertools.product((False, True), repeat=len(pairs)):
                yield LabeledGraph.build(
                    [(f"v{i}", g) for i, g in enumerate(groups)],
                    [(f"v{i}", f"v{j}", 2) for (i, j), e in zip(pairs, present) if e],
                )


OBSTRUCTION_CLASSES = {
    "racg-5": lambda: enumerate_graphs(CensusConfig(flavor="racg", max_vertices=5)),
    "raag-5": lambda: enumerate_graphs(CensusConfig(flavor="raag", max_vertices=5)),
    "coxeter-4": lambda: enumerate_graphs(
        CensusConfig(flavor="coxeter", max_vertices=4, edge_labels=(2, 3, 4, 5))
    ),
    "artin-3-4": lambda: _artin_with_label_3(4),
    "graph-product-4": lambda: _graph_products(4),
}


@pytest.mark.parametrize("name", sorted(OBSTRUCTION_CLASSES))
def test_no_superset_of_an_obstruction_is_slender(name):
    """The fact the search's pruning rests on: once a vertex set is not
    slender, no vertex set containing its obstruction is slender."""
    obstructions = 0
    for G in _classes(OBSTRUCTION_CLASSES[name]()):
        full = (1 << G.n) - 1
        verdicts = {m: is_slender(G.induced(mask_vertices(G, m))) for m in range(1, full + 1)}
        for mask, cert in verdicts.items():
            if cert.verdict != NOT_SLENDER:
                continue
            obstructions += 1
            obs = vertex_mask(G, cert.obstruction.vertices)
            assert obs & mask == obs
            for sup in range(1, full + 1):
                if sup & obs == obs:
                    assert verdicts[sup].verdict != SLENDER, (G, mask_vertices(G, sup))
    assert obstructions > 0


@pytest.mark.parametrize("name", sorted(OBSTRUCTION_CLASSES))
def test_no_vertex_set_with_an_f2_certificate_is_slender(name):
    """The fact the walk's certificate scan rests on: a vertex set in
    which ``first_f2_certificate`` finds a free pair or an independent
    triple on the ambient bitsets is not slender, whatever the flavor of
    the graph it induces."""
    certified = 0
    for G in _classes(OBSTRUCTION_CLASSES[name]()):
        order_two = order_two_mask(G)
        for mask in range(1, 1 << G.n):
            if first_f2_certificate(G.adjacency_masks, order_two, mask) is None:
                continue
            certified += 1
            H = G.induced(mask_vertices(G, mask))
            assert is_slender(H).verdict == NOT_SLENDER, H
    assert certified > 0


def test_slender_separators_refuse_labels_that_define_no_group():
    """Mixed vertex groups with a label 3 define no group, even where
    every separator the walk meets holds an F2 certificate."""
    G = LabeledGraph.build(
        [("a", Z), ("b", Z3), ("c", Z), ("d", Z3)],
        [("a", "b", 3), ("b", "c", 2), ("c", "d", 2), ("d", "a", 2)],
    )
    with pytest.raises(UnsupportedFlavorError):
        list(slender_separators(G))


# -- search counts ----------------------------------------------------------------


class _Unresolved:
    """A classifier stand-in that leaves every side unknown, so the
    amalgam search visits every split."""

    def classify(self, G):
        return Verdict(UNKNOWN, notes=(UnknownNote(code="no-rule-applied"),))

    def _classify_part(self, G, positions):
        return self.classify(G)


def _search_counts(note: UnknownNote) -> tuple[int, int]:
    assert note.code == "search-exhausted"
    m = re.fullmatch(
        r"(\d+) separator splits examined, (\d+) slender ones recursed, "
        r"none resolved both sides",
        note.detail,
    )
    return int(m.group(1)), int(m.group(2))


def _per_split_counts(G) -> tuple[int, int]:
    """Splits, and splits over a slender separator, one slenderness
    check per separator without pruning."""
    splits = list(enumerate_separator_splits(G))
    slender = {}
    for s in splits:
        if s.separator not in slender:
            slender[s.separator] = is_slender(G.induced(s.separator)).verdict == SLENDER
    return len(splits), sum(slender[s.separator] for s in splits)


@settings(max_examples=60)
@given(connected_graphs(8))
def test_search_counts_match_per_split_oracle(G):
    search = next(step for step in STEPS if step.name == "amalgam_search")
    notes = []
    assert search.prove(_Unresolved(), G, "key", detect_flavor(G), notes) is None
    if G.is_complete():
        assert notes == []
        return
    assert _search_counts(notes[-1]) == _per_split_counts(G)
    assert [flag for _, _, flag in slender_separators(G)] == [
        is_slender(G.induced(mask_vertices(G, sep))).verdict == SLENDER
        for sep, _ in walk_separators(G)
    ]


@pytest.mark.parametrize("k", range(len(REGULAR_4_10)))
def test_regular_graph_note_counts(k):
    G = _racg(10, REGULAR_4_10[k])
    v = classify(G)
    assert v.status == UNKNOWN
    assert _search_counts(v.notes[-1]) == _per_split_counts(G)


# -- pinned search results ----------------------------------------------------------


def test_pinned_search_exhausted_notes():
    for k, examined in ((0, 674), (3, 746)):
        v = classify(_racg(10, REGULAR_4_10[k]))
        assert v.status == UNKNOWN
        assert [(n.code, n.vertices, n.detail) for n in v.notes] == [
            (
                "search-exhausted",
                (),
                f"{examined} separator splits examined, 0 slender ones recursed, "
                "none resolved both sides",
            )
        ]


def _first_split(G) -> tuple:
    proof = classify(G).proof
    return (
        proof.rule,
        to_jsonable(proof.data),
        [(c.rule, c.vertices) for c in proof.children],
    )


def test_pinned_first_split_of_cycle_12():
    G = _racg(12, [(k, (k + 1) % 12) for k in range(12)])
    assert _first_split(G) == (
        "amalgam",
        {
            "separator": ["v0", "v2"],
            "left": ["v0", "v1", "v2"],
            "right": ["v0", "v11", "v2", "v10", "v3", "v9", "v4", "v8", "v5", "v7", "v6"],
            "method": "search",
        },
        [
            ("slender", ("v0", "v2", "v1")),
            ("amalgam", ("v0", "v2", "v11", "v3", "v10", "v4", "v9", "v5", "v8", "v6", "v7")),
        ],
    )


def test_pinned_first_split_of_grid_3x4():
    edges = [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
    edges += [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)]
    G = _racg(12, edges)
    assert _first_split(G) == (
        "amalgam",
        {
            "separator": ["v4", "v1"],
            "left": ["v0", "v4", "v1"],
            "right": ["v8", "v3", "v11", "v4", "v7", "v1", "v9", "v2", "v10", "v5", "v6"],
            "method": "search",
        },
        [
            ("slender", ("v4", "v1", "v0")),
            ("amalgam", ("v8", "v4", "v3", "v11", "v1", "v7", "v2", "v9", "v10", "v5", "v6")),
        ],
    )
