"""Chordality and Wise–Gordon evidence pinned by SHA-256.

Three seeded families of graphs with at most 10 vertices (right-angled
Coxeter, right-angled Artin, and Artin graphs with edge labels 2-4)
run through ``is_chordal`` and ``wise_gordon_check``.  The SHA-256 of
the ``repr`` of every result, one per line, must equal the pinned
value, so any change to a perfect elimination ordering, a chordless
cycle or a violation (its kind, its vertices or their order) fails
here.  Vertex ids are shuffled so that ids and positions differ.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from graphcoherence import LabeledGraph, Z, Z2, is_chordal, wise_gordon_check

GRAPHS_PER_FAMILY = 170

# family -> (is_chordal digest, wise_gordon_check digest), SHA-256 hex.
PINNED = {
    "racg": (
        "ed76d20bee42a2d7ca2231d3df36e954f21a17738e79d621ca2ae2c8b85ad395",
        "96fd8f0ea1be705fb48ff83e91701d7d049aa09ea8ee0cf9214af02353084ce2",
    ),
    "raag": (
        "4a2b1dcac1382ade60f28733a2d0510b3b8fa2641b4c06561c6813c90da6b109",
        "1b603be2a153054cf724b42e823e7b96318979faab737e212e33a8b82474cf67",
    ),
    "artin": (
        "1da846b34ea16c6757ba316d897e2dab158aa96289e176e0c884528e87d32928",
        "c102b470757b3ed62461c69a63191d4f9a73a6dae6d9cd18ca3414746e83e993",
    ),
}

FAMILIES = {
    "racg": (Z2, (2,)),
    "raag": (Z, (2,)),
    "artin": (Z, (2, 2, 2, 3, 4)),
}


def _chordal_edges(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """A chordal graph on 0..n-1: each new vertex joins a clique of the
    closed neighbourhood of an earlier vertex."""
    adj: dict[int, set[int]] = {0: set()}
    for v in range(1, n):
        anchor = rng.randrange(v)
        clique = [anchor]
        for u in rng.sample(sorted(adj[anchor]), rng.randint(0, len(adj[anchor]))):
            if all(u in adj[x] for x in clique):
                clique.append(u)
        adj[v] = set(clique)
        for u in clique:
            adj[u].add(v)
    return {(u, v) for v in adj for u in adj[v] if u < v}


def family(name: str) -> list[LabeledGraph]:
    """The seeded graphs of one family, most on 5 to 10 vertices: half
    grown chordal and then given up to three flipped pairs, half random
    with edge density 0.15 to 0.8."""
    group, labels = FAMILIES[name]
    rng = random.Random(f"chordality-pinned-{name}")
    graphs = []
    for _ in range(GRAPHS_PER_FAMILY):
        n = rng.randint(5, 10) if rng.random() < 0.85 else rng.randint(1, 4)
        pairs = list(itertools.combinations(range(n), 2))
        if rng.random() < 0.5:
            edges = _chordal_edges(rng, n)
            for _ in range(rng.randint(0, 3) if pairs else 0):
                edges ^= {rng.choice(pairs)}
        else:
            p = rng.choice((0.15, 0.3, 0.5, 0.8))
            edges = {pair for pair in pairs if rng.random() < p}
        ids = [f"v{i}" for i in range(n)]
        rng.shuffle(ids)
        graphs.append(
            LabeledGraph.build(
                [(v, group) for v in ids],
                [(ids[i], ids[j], rng.choice(labels)) for i, j in sorted(edges)],
            )
        )
    return graphs


def _digest(results) -> str:
    return hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_evidence_matches_pinned_digests(name):
    graphs = family(name)
    chordality = [is_chordal(G) for G in graphs]
    violations = [wise_gordon_check(G) for G in graphs]
    assert (_digest(chordality), _digest(violations)) == PINNED[name]


def test_families_cover_every_outcome():
    chordal = Counter(bool(is_chordal(G)) for name in FAMILIES for G in family(name))
    assert chordal[True] >= 100 and chordal[False] >= 100
    kinds = Counter(
        getattr(wise_gordon_check(G), "violation", None) for G in family("artin")
    )
    assert set(kinds) == {None, "long_cycle", "clique_big_labels", "forbidden_square"}
