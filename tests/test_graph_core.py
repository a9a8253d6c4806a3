"""The bitset graph core against networkx: graph components, join
factors and Coxeter-diagram components all come from one walk, and each
part is a tuple in ambient vertex order, parts ordered by smallest
position."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import LabeledGraph, Z2, classify_components, join_factors
from graphcoherence.decomposition import mask_vertices as reexported_mask_vertices
from graphcoherence.labeled_graph import mask_components, mask_vertices, vertex_mask

# Ids whose alphabetical order differs from every drawn vertex order, so a
# part sorted by name instead of by position shows.
IDS = ("k", "b", "x", "a", "q", "m", "c", "z", "e")


@st.composite
def labeled_graphs(draw, max_n: int = 9):
    """All-Z2 graphs, possibly disconnected, with a shuffled vertex order
    and edge labels 2..5."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.permutations(IDS))[:n]
    pairs = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    return LabeledGraph.build(
        [(v, Z2) for v in ids],
        [(ids[i], ids[j], draw(st.sampled_from((2, 3, 4, 5)))) for i, j in pairs],
    )


def _nx_parts(nx, G: LabeledGraph, joined) -> set[frozenset[str]]:
    H = nx.Graph()
    H.add_nodes_from(G.vertices)
    H.add_edges_from((u, v) for u, v in itertools.combinations(G.vertices, 2) if joined(u, v))
    return {frozenset(c) for c in nx.connected_components(H)}


def _assert_ordered_partition(G: LabeledGraph, parts) -> None:
    """Each part a tuple in ambient order; parts by smallest position."""
    assert isinstance(parts, tuple)
    for part in parts:
        assert isinstance(part, tuple)
        assert list(part) == sorted(part, key=G.index)
    firsts = [G.index(part[0]) for part in parts]
    assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
    assert sorted(v for part in parts for v in part) == sorted(G.vertices)


@settings(max_examples=80)
@given(labeled_graphs())
def test_components_match_networkx(G):
    nx = pytest.importorskip("networkx")
    comps = G.components()
    _assert_ordered_partition(G, comps)
    assert {frozenset(c) for c in comps} == _nx_parts(nx, G, G.has_edge)
    assert G.is_connected() == (len(comps) == 1)


@settings(max_examples=80)
@given(labeled_graphs())
def test_join_factors_match_noncommuting_components(G):
    nx = pytest.importorskip("networkx")
    parts = join_factors(G)
    _assert_ordered_partition(G, parts)

    def noncommuting(u, v):
        m = G.edge_label(u, v)
        return m is None or m >= 3

    assert {frozenset(p) for p in parts} == _nx_parts(nx, G, noncommuting)


@settings(max_examples=80)
@given(labeled_graphs())
def test_diagram_components_match_networkx(G):
    nx = pytest.importorskip("networkx")
    parts = tuple(vertices for vertices, _ in classify_components(G))
    _assert_ordered_partition(G, parts)
    # The standard diagram: a bond wherever the pair's order is not 2 (a
    # label >= 3, or infinity for a missing edge).
    bonded = lambda u, v: G.edge_label(u, v) != 2  # noqa: E731
    assert {frozenset(p) for p in parts} == _nx_parts(nx, G, bonded)


@settings(max_examples=40)
@given(labeled_graphs())
def test_adjacency_masks_and_mask_helpers(G):
    masks = G.adjacency_masks
    for (i, u), (j, v) in itertools.product(enumerate(G.vertices), repeat=2):
        assert bool(masks[i] >> j & 1) == G.has_edge(u, v)
    # The bitsets are a cache: not part of equality or hashing.
    fresh = LabeledGraph(G.vertices, G.groups, G.edges)
    assert fresh == G and hash(fresh) == hash(G)
    full = (1 << G.n) - 1
    assert [mask_vertices(G, c) for c in mask_components(masks, full)] == list(G.components())
    for size in range(G.n + 1):
        for subset in itertools.combinations(G.vertices, size):
            mask = vertex_mask(G, subset)
            assert mask_vertices(G, mask) == tuple(sorted(subset, key=G.index))
    assert reexported_mask_vertices is mask_vertices
