"""Separator-based splittings of labeled graphs.

A split cuts a connected graph along a vertex separator S into two
proper sides that intersect exactly in S and have no edges across.  The
group then decomposes as an amalgam of the two side subgroups over the
separator subgroup, which is the shape the classification engine feeds
on.  Chordal graphs get a direct construction whose separator is always
a clique; everything else goes through ordered exhaustive enumeration.

The enumeration works on int bitmasks over vertex positions.  The
adjacency bitsets belong to the graph and the one components walk to
:mod:`.labeled_graph` (``LabeledGraph.adjacency_masks``,
:func:`~.labeled_graph.mask_components`); this module re-exports the
mask helpers.  :func:`walk_separators` yields each separator once with
the components it leaves, and :func:`slender_separators` adds each
separator's slenderness, deciding it at most once per separator and not
at all for a separator that contains an obstruction found earlier in
the walk (a special subgroup of a slender group is slender).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .group_model import NOT_SLENDER, SLENDER, is_slender
from .labeled_graph import (
    GraphValidationError,
    InternalInvariantError,
    LabeledGraph,
    mask_components,
    mask_vertices,
    vertex_mask,
)


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


def is_clique_separator(G: LabeledGraph, separator: Iterable[str]) -> bool:
    """True iff the set induces a complete subgraph (any labels) whose
    removal disconnects the rest of the graph."""
    sep = vertex_mask(G, separator)
    adj = G.adjacency_masks
    if any(sep >> i & 1 and sep & ~adj[i] & ~(1 << i) for i in range(G.n)):
        return False
    rest = ((1 << G.n) - 1) & ~sep
    return bool(rest) and len(mask_components(adj, rest)) >= 2


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
    adj = G.adjacency_masks
    ia, ib = G.index(a), G.index(b)
    full = (1 << G.n) - 1
    comps = mask_components(adj, full & ~(adj[ia] | 1 << ia))
    comp_b = next(c for c in comps if c >> ib & 1)
    sep = 0
    for i in range(G.n):
        if adj[ia] >> i & 1 and adj[i] & comp_b:
            sep |= 1 << i
    separator = mask_vertices(G, sep)
    if not is_clique_separator(G, separator):
        raise InternalInvariantError("minimal separator of a chordal graph must be a clique")
    split = Split(
        separator=separator,
        left=mask_vertices(G, full & ~comp_b),
        right=mask_vertices(G, sep | comp_b),
        method="dirac",
    )
    if not verify_split(G, split):
        raise InternalInvariantError("dirac construction produced an invalid split")
    return split


def walk_separators(G: LabeledGraph) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every vertex separator of a connected non-complete graph, with
    the components it leaves.

    Yields ``(separator, components)`` as bitmasks over vertex
    positions.  Separators come by size, then lexicographically by
    vertex position; components are ordered by smallest vertex
    position.  A set whose removal leaves one component is skipped.
    """
    if not G.is_connected() or G.is_complete():
        return
    adj = G.adjacency_masks
    full = (1 << G.n) - 1
    for size in range(1, G.n - 1):
        for combo in itertools.combinations(range(G.n), size):
            sep = 0
            for i in combo:
                sep |= 1 << i
            comps = mask_components(adj, full & ~sep)
            if len(comps) >= 2:
                yield sep, comps


def separator_splits(G: LabeledGraph, sep: int, comps: tuple[int, ...]) -> Iterator[Split]:
    """The ``2**len(comps) - 2`` splits along one separator: every way
    of gathering its components into a nonempty proper left side, so
    each split also appears mirrored."""
    full = (1 << G.n) - 1
    separator = mask_vertices(G, sep)
    k = len(comps)
    for choice in range(1, (1 << k) - 1):
        left = sep
        for idx in range(k):
            if choice >> idx & 1:
                left |= comps[idx]
        yield Split(
            separator=separator,
            left=mask_vertices(G, left),
            right=mask_vertices(G, (full & ~left) | sep),
            method="search",
        )


def enumerate_separator_splits(G: LabeledGraph) -> Iterator[Split]:
    """All separator splits of a connected non-complete graph, in a
    fixed deterministic order.

    The separators of :func:`walk_separators` in its order, each
    followed by its :func:`separator_splits`.  Every yielded split
    satisfies :func:`verify_split`.
    """
    for sep, comps in walk_separators(G):
        yield from separator_splits(G, sep, comps)


def slender_separators(G: LabeledGraph) -> Iterator[tuple[int, tuple[int, ...], bool]]:
    """:func:`walk_separators` with a flag telling whether the
    separator subgroup is slender.

    ``is_slender`` runs at most once per separator.  Its not-slender
    obstructions (the vertices of an F2 certificate or an indefinite
    component) are kept, and a later separator containing one is
    flagged False without a check: a special subgroup of a slender
    group is slender, so no group containing a non-slender one is.
    """
    obstructions: list[int] = []
    for sep, comps in walk_separators(G):
        if any(obs & sep == obs for obs in obstructions):
            yield sep, comps, False
            continue
        cert = is_slender(G.induced(mask_vertices(G, sep)))
        if cert.verdict == NOT_SLENDER:
            obstructions.append(vertex_mask(G, cert.obstruction.vertices))
        yield sep, comps, cert.verdict == SLENDER
