"""Chordality against networkx.

``is_chordal`` must agree with ``networkx.is_chordal`` and carry
evidence its own checkers accept: a perfect elimination ordering on
chordal graphs, an induced chordless cycle of length >= 4 otherwise.
On connected, non-complete chordal graphs ``dirac_split`` must give a
valid split along a clique separator.  Graphs are grown chordal, then
sometimes get a few extra edges or lose a few, so both outcomes are
common; vertex ids are shuffled so that ids and positions differ.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import (
    LabeledGraph,
    Z2,
    dirac_split,
    is_chordal,
    is_clique_separator,
    is_induced_chordless_cycle,
    verify_peo,
    verify_split,
)
from helpers import random_chordal_graph

nx = pytest.importorskip("networkx")


@st.composite
def near_chordal_graphs(draw, max_n: int = 12):
    rng = random.Random(draw(st.integers(0, 2**32)))
    G = random_chordal_graph(rng, max_n)
    pairs = [(u, v) for k, u in enumerate(G.vertices) for v in G.vertices[k + 1:]]
    edges = {(u, v) for u, v, _ in G.edge_list()}
    for _ in range(rng.choice((0, 1, 3, 6)) if pairs else 0):
        edges ^= {rng.choice(pairs)}
    ids = list(G.vertices)
    rng.shuffle(ids)
    return LabeledGraph.build([(v, Z2) for v in ids], [(u, v, 2) for u, v in sorted(edges)])


def to_networkx(G: LabeledGraph):
    H = nx.Graph()
    H.add_nodes_from(G.vertices)
    H.add_edges_from((u, v) for u, v, _ in G.edge_list())
    return H


@settings(max_examples=400)
@given(near_chordal_graphs())
def test_is_chordal_matches_networkx(G):
    result = is_chordal(G)
    assert result.chordal == nx.is_chordal(to_networkx(G))
    if result.chordal:
        assert result.cycle is None
        assert verify_peo(G, result.peo)
        if G.is_connected() and not G.is_complete():
            split = dirac_split(G)
            assert verify_split(G, split)
            assert is_clique_separator(G, split.separator)
    else:
        assert result.peo is None
        assert len(result.cycle) >= 4
        assert is_induced_chordless_cycle(G, result.cycle)
