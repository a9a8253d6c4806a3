"""The table-driven separator walk against the walk one subset at a
time: its subset stepper, its yields, its laziness and table sizes, and
the slenderness checks the walk makes."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import AbelianGroupLabel, LabeledGraph, Z, Z2, cyclic, racg
from graphcoherence import decomposition
from graphcoherence.decomposition import _subset_masks, slender_separators, walk_separators
from helpers import oracle_walk_separators
from test_separator_search import REGULAR_4_10, _racg

_GROUPS = {
    "racg": (Z2,),
    "raag": (Z,),
    "coxeter": (Z2,),
    "artin": (Z,),
    "graph_product": (Z, Z2, cyclic(3), AbelianGroupLabel(rank=1, torsion=(2,))),
}
_LABELS = {
    "racg": (2,),
    "raag": (2,),
    "coxeter": (2, 3, 4, 5),
    "artin": (2, 3, 4),
    "graph_product": (2,),
}


@st.composite
def graphs(draw, max_n: int = 14):
    """Graphs of all five flavors on 1..``max_n`` vertices; an edge
    density of 0 gives a disconnected graph (n >= 2) and 1 a complete
    one."""
    flavor = draw(st.sampled_from(sorted(_GROUPS)))
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from((0.0, 0.15, 0.3, 0.5, 0.8, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    return LabeledGraph.build(
        [(f"v{i}", rng.choice(_GROUPS[flavor])) for i in range(n)],
        [
            (f"v{i}", f"v{j}", rng.choice(_LABELS[flavor]))
            for i, j in itertools.combinations(range(n), 2)
            if rng.random() < density
        ],
    )


def test_subset_stepper_follows_combinations():
    for n in range(17):
        for size in range(n + 1):
            expected = [sum(1 << i for i in c) for c in itertools.combinations(range(n), size)]
            assert list(_subset_masks(n, size)) == expected, (n, size)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_walk_matches_the_oracle(G):
    assert list(walk_separators(G)) == list(oracle_walk_separators(G))


@pytest.fixture
def table_sizes(monkeypatch):
    """The length of every neighbourhood list the walk builds."""
    sizes = []
    build = decomposition._neighbourhood_table

    def recording(adj, start, stop):
        table = build(adj, start, stop)
        if isinstance(table, list):
            sizes.append(len(table))
        return table

    monkeypatch.setattr(decomposition, "_neighbourhood_table", recording)
    return sizes


def _ring_40() -> LabeledGraph:
    """A 40-cycle with a chord from every fifth vertex to the vertex 7
    steps on: sparse, so the first 1,000 separators have at most 3
    vertices."""
    edges = [(i, (i + 1) % 40) for i in range(40)] + [(i, i + 7) for i in range(0, 33, 5)]
    return racg([f"v{i}" for i in range(40)], [(f"v{i}", f"v{j}") for i, j in edges])


def test_walk_is_lazy_with_small_tables_on_40_vertices(table_sizes):
    G = _ring_40()
    started = time.perf_counter()
    first = list(itertools.islice(walk_separators(G), 1000))
    elapsed = time.perf_counter() - started
    assert first == list(itertools.islice(oracle_walk_separators(G), 1000))
    assert elapsed < 1.0
    assert table_sizes and max(table_sizes) <= 256


@pytest.mark.parametrize("n", [3, 8, 12, 16, 17, 25])
def test_no_table_has_more_than_256_entries(table_sizes, n):
    G = _racg(n, [(i, i + 1) for i in range(n - 1)])
    next(walk_separators(G))
    assert table_sizes and max(table_sizes) <= 256


@pytest.mark.parametrize(
    "k, calls, separators",
    [(0, 0, 243), (1, 3, 282), (2, 3, 282), (3, 4, 303), (4, 5, 299)],
)
def test_slenderness_checks_on_the_regular_graphs(monkeypatch, k, calls, separators):
    """The walk decides slenderness once per separator that contains
    neither an obstruction found earlier nor an F2 certificate, in walk
    order."""
    checked = []
    is_slender = decomposition.is_slender

    def counting(H):
        checked.append(H.vertices)
        return is_slender(H)

    monkeypatch.setattr(decomposition, "is_slender", counting)
    G = _racg(10, REGULAR_4_10[k])
    walked = list(slender_separators(G))
    assert (len(checked), len(walked)) == (calls, separators)
    assert sorted(checked) == sorted(set(checked))
