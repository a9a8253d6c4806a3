"""The Wise-Gordon scan against its tuple-by-tuple oracle.

``wise_gordon_check`` must return exactly what
``helpers.brute_force_wise_gordon`` returns: the same violation kind and
the same vertex tuple, or None for both.  Uniform random Artin graphs
rarely hold a forbidden square, so half of the graphs are grown
chordal, with one or two heavy edges and label 2 elsewhere.  Vertex
order is shuffled, so positions and ids differ.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import LabeledGraph, Z, wise_gordon_check
from helpers import brute_force_wise_gordon, random_chordal_graph, random_labeled_graph


def artin_graph_from_seed(seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    if rng.random() < 0.5:
        G = random_labeled_graph(rng, 10, groups=(Z,), labels=(2, 3, 4, 5))
        edges = list(G.edge_list())
    else:
        G = random_chordal_graph(rng, 10)
        plain = list(G.edge_list())
        heavy = set(rng.sample(range(len(plain)), min(len(plain), rng.randint(1, 2))))
        edges = [
            (u, v, rng.randint(3, 5) if k in heavy else 2) for k, (u, v, _) in enumerate(plain)
        ]
    ids = list(G.vertices)
    rng.shuffle(ids)
    return LabeledGraph.build([(v, Z) for v in ids], edges)


def outcome(G: LabeledGraph):
    violation = wise_gordon_check(G)
    assert violation == brute_force_wise_gordon(G)
    return None if violation is None else violation.violation


@settings(max_examples=400)
@given(st.integers(0, 2**32))
def test_wise_gordon_check_matches_the_tuple_scan(seed):
    outcome(artin_graph_from_seed(seed))


def test_every_outcome_is_reached():
    seen = {outcome(artin_graph_from_seed(seed)) for seed in range(400)}
    assert seen == {None, "long_cycle", "clique_big_labels", "forbidden_square"}
