"""Separator-based splittings of labeled graphs.

A split cuts a connected graph along a vertex separator S into two
proper sides that intersect exactly in S and have no edges across.  The
group then decomposes as an amalgam of the two side subgroups over the
separator subgroup, which is the shape the classification engine feeds
on.  Chordal graphs get a direct construction whose separator is always
a clique; everything else goes through ordered exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .labeled_graph import GraphValidationError, InternalInvariantError, LabeledGraph


@dataclass(frozen=True)
class Split:
    """A two-sided separator split.

    ``left`` and ``right`` both contain ``separator``; their union is
    the whole vertex set and their intersection is exactly the
    separator.  All tuples are sorted by ambient vertex position.
    """

    separator: tuple[str, ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    method: str = "search"


def _sorted_by_position(G: LabeledGraph, items: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(items, key=G.index))


def _components_avoiding(G: LabeledGraph, banned: set[str]) -> list[set[str]]:
    """Connected components of G minus ``banned``, ordered by smallest
    vertex position."""
    seen: set[str] = set(banned)
    comps: list[set[str]] = []
    for v in G.vertices:
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in G.neighbors(x):
                if y not in seen and y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def is_clique_separator(G: LabeledGraph, separator: Iterable[str]) -> bool:
    """True iff the set induces a complete subgraph (any labels) whose
    removal disconnects the rest of the graph."""
    sep = set(separator)
    for v in sep:
        G.index(v)
    for a, b in itertools.combinations(sorted(sep, key=G.index), 2):
        if not G.has_edge(a, b):
            return False
    rest = [v for v in G.vertices if v not in sep]
    if not rest:
        return False
    return len(_components_avoiding(G, sep)) >= 2


def verify_split(G: LabeledGraph, split: Split) -> bool:
    """Check the structural split invariants.

    Union covers the graph, intersection is the separator, both sides
    properly extend it, and no edge joins the two open sides.
    """
    left, right, sep = set(split.left), set(split.right), set(split.separator)
    all_v = set(G.vertices)
    if not (sep <= left and sep <= right):
        return False
    if left | right != all_v or left & right != sep:
        return False
    if not (left - sep) or not (right - sep):
        return False
    for u in left - sep:
        for w in G.neighbors(u):
            if w in right - sep:
                return False
    return True


def dirac_split(G: LabeledGraph) -> Split:
    """Split a connected, non-complete chordal graph along a clique
    separator.

    Takes the first nonadjacent pair (a, b) in vertex order, removes the
    closed neighborhood of a, and keeps the neighbors of a that see b's
    component; those form a minimal a-b separator, which in a chordal
    graph is complete.  The left side is the one containing a.
    """
    if not G.is_connected():
        raise GraphValidationError("dirac split requires a connected graph")
    pair: Optional[tuple[str, str]] = next(G.nonadjacent_pairs(), None)
    if pair is None:
        raise GraphValidationError("dirac split requires a non-complete graph")
    a, b = pair
    closed = set(G.neighbors(a)) | {a}
    comp_b = next(c for c in _components_avoiding(G, closed) if b in c)
    sep = {x for x in G.neighbors(a) if any(G.has_edge(x, y) for y in comp_b)}
    if not is_clique_separator(G, sep):
        raise InternalInvariantError("minimal separator of a chordal graph must be a clique")
    left = set(G.vertices) - comp_b
    right = sep | comp_b
    split = Split(
        separator=_sorted_by_position(G, sep),
        left=_sorted_by_position(G, left),
        right=_sorted_by_position(G, right),
        method="dirac",
    )
    if not verify_split(G, split):
        raise InternalInvariantError("dirac construction produced an invalid split")
    return split


def enumerate_separator_splits(G: LabeledGraph) -> Iterator[Split]:
    """All separator splits of a connected non-complete graph, in a
    fixed deterministic order.

    Separators are tried by size, then lexicographically by vertex
    position; for each one, every way of gathering its complement
    components into a nonempty proper left side is emitted (so each
    split also appears mirrored).  Every yielded split satisfies
    :func:`verify_split`.
    """
    if not G.is_connected() or G.is_complete():
        return
    all_v = set(G.vertices)
    for size in range(1, G.n - 1):
        for sep_combo in itertools.combinations(G.vertices, size):
            sep = set(sep_combo)
            comps = _components_avoiding(G, sep)
            if len(comps) < 2:
                continue
            k = len(comps)
            for mask in range(1, (1 << k) - 1):
                chosen: set[str] = set(sep)
                for idx in range(k):
                    if mask >> idx & 1:
                        chosen |= comps[idx]
                yield Split(
                    separator=_sorted_by_position(G, sep),
                    left=_sorted_by_position(G, chosen),
                    right=_sorted_by_position(G, (all_v - chosen) | sep),
                    method="search",
                )
