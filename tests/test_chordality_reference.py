"""Chordality on the adjacency bitsets against its list-and-dict form.

``is_chordal`` runs LexBFS, the elimination test and the cycle search on
``LabeledGraph.adjacency_masks``.  It must return exactly what
``helpers.reference_is_chordal`` returns, the same test on Python lists
and dicts: the same verdict, the same perfect elimination ordering or
the same cycle, vertex for vertex.  Graphs are RACG, RAAG and Artin
graphs with shuffled ids, so ids and positions differ; half are grown
chordal and then get a few edges toggled, so both outcomes are common.
Fixed seeds add graphs of 70 and 300 vertices, whose bitsets are wider
than one machine word.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import LabeledGraph, Z, Z2, is_chordal
from helpers import random_chordal_graph, random_labeled_graph, reference_is_chordal

FLAVORS = {"racg": (Z2, (2,)), "raag": (Z, (2,)), "artin": (Z, (2, 3, 4, 5))}


def graph_from_seed(seed: int, flavor: str, max_n: int, min_n: int = 1) -> LabeledGraph:
    rng = random.Random(seed)
    group, labels = FLAVORS[flavor]
    # Uniform random graphs only up to 12 vertices: above that they are dense
    # and almost never chordal.
    if rng.random() < 0.5 and max_n <= 12:
        G = random_labeled_graph(rng, max_n, min_n=min_n)
        edges = {(u, v) for u, v, _ in G.edge_list()}
    else:
        G = random_chordal_graph(rng, max_n, min_n=min_n)
        edges = {(u, v) for u, v, _ in G.edge_list()}
        ids = G.vertices
        for _ in range(rng.choice((0, 1, 3, 6)) if G.n > 1 else 0):
            u, v = sorted(rng.sample(ids, 2), key=ids.index)
            edges ^= {(u, v)}
    ids = list(G.vertices)
    rng.shuffle(ids)
    return LabeledGraph.build(
        [(v, group) for v in ids], [(u, v, rng.choice(labels)) for u, v in sorted(edges)]
    )


@settings(max_examples=400)
@given(st.integers(0, 2**32), st.sampled_from(sorted(FLAVORS)))
def test_is_chordal_equals_the_list_and_dict_form(seed, flavor):
    G = graph_from_seed(seed, flavor, 12)
    assert is_chordal(G) == reference_is_chordal(G)


@pytest.mark.parametrize("n", [70, 300])
@pytest.mark.parametrize("seed", range(6))
def test_is_chordal_equals_the_list_and_dict_form_above_one_word(n, seed):
    G = graph_from_seed(seed, sorted(FLAVORS)[seed % 3], n, min_n=n)
    assert G.n == n
    assert is_chordal(G) == reference_is_chordal(G)
