"""Separator-based splittings of labeled graphs.

A split cuts a connected graph along a vertex separator S into two
proper sides that intersect exactly in S and have no edges across.  The
group then decomposes as an amalgam of the two side subgroups over the
separator subgroup, which is the shape the classification engine feeds
on.  Chordal graphs get a direct construction whose separator is always
a clique; everything else goes through ordered exhaustive enumeration.

The enumeration works on int bitmasks over vertex positions.  The
adjacency bitsets belong to the graph and the components walk for
one-off calls to :mod:`.labeled_graph` (``LabeledGraph.adjacency_masks``,
:func:`~.labeled_graph.mask_components`); this module re-exports the
mask helpers.  :func:`walk_separators` yields each separator once with
the components it leaves.  It finds components for up to ``2**n``
subsets of one graph, so it steps through the subsets by bit arithmetic
(:func:`_subset_masks`) and grows each component by lookups in
neighbourhood tables of at most 256 entries, built once per walk
(:func:`_neighbourhood_table`).  :func:`slender_separators` adds each
separator's slenderness, deciding it at most once per separator and not
at all for a separator that contains an obstruction found earlier in
the walk (a special subgroup of a slender group is slender).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .group_model import NOT_SLENDER, SLENDER, is_slender
from .labeled_graph import (
    GraphValidationError,
    InternalInvariantError,
    LabeledGraph,
    induced_as_listed,
    mask_components,
    mask_positions,
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


def _subset_masks(n: int, size: int) -> Iterator[int]:
    """The ``size``-element subsets of positions ``0..n-1`` as bitmasks,
    in ``itertools.combinations(range(n), size)`` order.

    The successor of a subset moves up by one its highest member with a
    free position directly above it (the highest member below the block
    of members packed against position ``n - 1``), packs that block
    right after it, and keeps the members below it.
    """
    full = (1 << n) - 1
    mask = (1 << size) - 1
    last = full ^ (full >> size)
    yield mask
    while mask != last:
        gap = (mask ^ full).bit_length() - 1  # the highest position left out
        rest = mask & ((1 << gap) - 1)
        top = rest.bit_length() - 1  # the member that moves up
        mask = rest ^ (1 << top) | (full >> gap) << (top + 1)
        yield mask


def _neighbourhood_table(adj: Sequence[int], start: int, stop: int):
    """``T[X]``: the union of ``adj[start + i]`` over the bits i of X,
    for X over positions ``start..stop-1``.

    A span of at most 8 positions is one list of ``2**(stop - start)``
    entries; a wider one is a :class:`_ChunkedTable` of such lists, so
    no table has more than 256 entries.
    """
    if stop - start > 8:
        return _ChunkedTable(adj, start, stop)
    table = [0]
    for row in adj[start:stop]:
        table += [reach | row for reach in table]
    return table


class _ChunkedTable:
    """A neighbourhood table over more than 8 positions, one list per
    8-position chunk, looked up by indexing like a list."""

    def __init__(self, adj: Sequence[int], start: int, stop: int):
        self._chunks = [
            _neighbourhood_table(adj, lo, min(lo + 8, stop)) for lo in range(start, stop, 8)
        ]

    def __getitem__(self, mask: int) -> int:
        reach = 0
        for chunk in self._chunks:
            reach |= chunk[mask & 255]
            mask >>= 8
        return reach


def walk_separators(G: LabeledGraph) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every vertex separator of a connected non-complete graph, with
    the components it leaves.

    Yields ``(separator, components)`` as bitmasks over vertex
    positions.  Separators come by size, then lexicographically by
    vertex position; components are ordered by smallest vertex
    position.  A set whose removal leaves one component is skipped.

    The walk is lazy, and its set-up is two neighbourhood tables, over
    the low ``h`` positions and over the rest (:func:`_neighbourhood_table`).
    A component grows from its smallest vertex by
    ``comp | lo[comp & m] | hi[comp >> h]`` within the vertices left,
    one step per layer of breadth-first search, until it stops growing
    or holds every vertex left.
    """
    if not G.is_connected() or G.is_complete():
        return
    adj = G.adjacency_masks
    n = G.n
    full = (1 << n) - 1
    h = min(n // 2, 8)
    m = (1 << h) - 1
    lo = _neighbourhood_table(adj, 0, h)
    hi = _neighbourhood_table(adj, h, n)
    for size in range(1, n - 1):
        for sep in _subset_masks(n, size):
            rest = full ^ sep
            comps = []
            while True:
                comp = rest & -rest
                while True:
                    grown = (comp | lo[comp & m] | hi[comp >> h]) & rest
                    if grown == comp or grown == rest:
                        break
                    comp = grown
                if grown == rest:  # the last component
                    break
                comps.append(grown)
                rest ^= grown
            if comps:
                comps.append(rest)
                yield sep, tuple(comps)


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
        for obs in obstructions:
            if not obs & ~sep:
                yield sep, comps, False
                break
        else:
            cert = is_slender(induced_as_listed(G, list(mask_positions(sep))))
            if cert.verdict == NOT_SLENDER:
                obstructions.append(vertex_mask(G, cert.obstruction.vertices))
            yield sep, comps, cert.verdict == SLENDER
