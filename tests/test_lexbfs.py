"""The LexBFS lemma behind ``is_chordal``, and its evidence on every
small graph.

``is_chordal`` takes its cycle from the first vertex that fails the
elimination test in the reverse LexBFS order.  That the cycle always
exists rests on a lemma about the order (stated and proved in the
``is_chordal`` docstring): for a before b before c with ac an edge and
ab not, some a--b path runs through vertices before a that are not
adjacent to c.  The first test checks the lemma on the order
``_lex_bfs_order`` returns; the second runs ``is_chordal`` on every
labeled graph with at most 6 vertices, so on every vertex order of
every such graph, and checks its evidence.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import (
    LabeledGraph,
    Z2,
    is_chordal,
    is_induced_chordless_cycle,
    racg,
    verify_peo,
)
from graphcoherence.labeled_graph import _lex_bfs_order


@st.composite
def graphs(draw, max_n: int = 10):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, keep in zip(pairs, present) if keep]


def _joined_through(adj: list[set[int]], a: int, b: int, allowed: set[int]) -> bool:
    """Whether some a--b path has all its internal vertices in ``allowed``."""
    seen = {a}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        if b in adj[x]:
            return True
        for y in adj[x] & allowed - seen:
            seen.add(y)
            frontier.append(y)
    return False


@settings(max_examples=300)
@given(graphs())
def test_lexbfs_lemma_joins_a_to_b_before_a_and_outside_c(graph):
    n, edges = graph
    G = racg([str(i) for i in range(n)], [(str(i), str(j)) for i, j in edges])
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    order = _lex_bfs_order(G)
    assert sorted(order) == list(range(n))
    for ia, ib, ic in itertools.combinations(range(n), 3):
        a, b, c = order[ia], order[ib], order[ic]
        if c in adj[a] and b not in adj[a]:
            allowed = {x for x in order[:ia] if x not in adj[c]}
            assert _joined_through(adj, a, b, allowed), (order, a, b, c)


def test_every_graph_on_at_most_6_vertices_gets_checkable_evidence():
    counts = {True: 0, False: 0}
    for n in range(1, 7):
        ids = tuple(f"v{i}" for i in range(n))
        groups = (Z2,) * n
        pairs = list(itertools.combinations(range(n), 2))
        for present in itertools.product((False, True), repeat=len(pairs)):
            edges = tuple((i, j, 2) for (i, j), keep in zip(pairs, present) if keep)
            G = LabeledGraph(vertices=ids, groups=groups, edges=edges)
            result = is_chordal(G)
            if result.chordal:
                assert result.cycle is None and verify_peo(G, result.peo), edges
            else:
                assert result.peo is None and is_induced_chordless_cycle(G, result.cycle), edges
            counts[result.chordal] += 1
    # Labeled graphs on 1..6 vertices, and the chordal ones (OEIS A058862).
    assert sum(counts.values()) == 1 + 2 + 8 + 64 + 1024 + 32768
    assert counts[True] == 1 + 2 + 8 + 61 + 822 + 18154
