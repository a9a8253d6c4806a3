"""Canonical labeling against its exact definition and against networkx.

``canonical_form`` gives each vertex the row ``(colour, vkey, codes)`` at
its position in a vertex order, ``codes`` holding ``(0, m)`` per earlier
neighbour with edge label m and ``(1,)`` per earlier non-neighbour; the
key comes from the lexicographically least row sequence and the
placement is the lexicographically smallest order attaining it.  The
brute-force oracle below restates that over all vertex orders, with its
own colour refinement; the pinned values are the keys and placements of
the benchmark's classify inputs (seed 1) and of two symmetric graphs,
and the networkx oracle checks that keys separate exactly the
isomorphism classes of symmetric graphs on 8-12 vertices.  Every
automorphism the search prunes with is checked by brute force, and so
is the order of the automorphism group it reports, which also meets
closed forms on larger symmetric graphs.  Keys read back: a canonical
key through ``graph_from_key`` gives the canonical representative, and
a raw key gives the graph in its own order.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import labeled_graph
from graphcoherence.coherence_engine import _raw_key
from graphcoherence.labeled_graph import (
    AbelianGroupLabel,
    LabeledGraph,
    canonical_form,
    canonical_graph,
    canonical_relabel,
    graph_from_key,
    parse_graph,
)
from helpers import brute_force_automorphism_count
from test_cli_roundtrip import flavored_graphs

GROUPS = (
    AbelianGroupLabel(torsion=(2,)),
    AbelianGroupLabel(torsion=(3,)),
    AbelianGroupLabel(rank=1),
    AbelianGroupLabel(rank=2),
    AbelianGroupLabel(rank=1, torsion=(2,)),
)
# Vertex ids not in alphabetical order, so confusing ids with positions shows.
IDS = ("k", "b", "x", "a", "q", "m", "c")


def refined_colours(G: LabeledGraph) -> list[int]:
    """Colour refinement: rank (vkey, degree, sorted labels), then rank
    (colour, sorted (label, neighbour colour)) until no class splits."""

    def rank(sigs):
        order = {s: c for c, s in enumerate(sorted(set(sigs)))}
        return [order[s] for s in sigs]

    nbrs = [[(G.index(v), G.edge_label(u, v)) for v in G.neighbors(u)] for u in G.vertices]
    colours = rank(
        [(g.key(), len(nb), tuple(sorted(m for _, m in nb))) for g, nb in zip(G.groups, nbrs)]
    )
    while True:
        new = rank(
            [(colours[i], tuple(sorted((m, colours[j]) for j, m in nb))) for i, nb in enumerate(nbrs)]
        )
        if new == colours:
            return colours
        colours = new


def brute_force_canonical_form(G: LabeledGraph) -> tuple[str, tuple[str, ...]]:
    colours = refined_colours(G)
    vkeys = [g.key() for g in G.groups]

    def code(u: int, v: int) -> tuple[int, ...]:
        m = G.edge_label(G.vertices[u], G.vertices[v])
        return (1,) if m is None else (0, m)

    def rows(order):
        return [
            (colours[v], vkeys[v], tuple(code(v, u) for u in order[:k]))
            for k, v in enumerate(order)
        ]

    # min over (rows, order) pairs: least rows first, then smallest order.
    _, order = min((rows(order), order) for order in itertools.permutations(range(G.n)))
    pos = {v: p for p, v in enumerate(order)}
    edges = sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), m) for i, j, m in G.edges)
    key = (
        f"{G.n};{';'.join(vkeys[v] for v in order)};"
        + ",".join(f"{i}-{j}:{m}" for i, j, m in edges)
    )
    return key, tuple(G.vertices[v] for v in order)


@st.composite
def mixed_graphs(draw, max_n: int = 6):
    """Graphs with mixed vertex groups and edge labels 2..5, vertex
    order and ids drawn, often with repeated groups and labels so that
    colour classes and automorphisms are common."""
    n = draw(st.integers(1, max_n))
    ids = draw(st.permutations(IDS))[:n]
    groups = draw(st.lists(st.sampled_from(GROUPS), min_size=1, max_size=2))
    labels = draw(st.lists(st.sampled_from((2, 3, 4, 5)), min_size=1, max_size=2))
    density = draw(st.sampled_from((0.0, 0.3, 0.5, 0.8, 1.0)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return LabeledGraph.build(
        [(v, rng.choice(groups)) for v in ids],
        [
            (ids[i], ids[j], rng.choice(labels))
            for i, j in itertools.combinations(range(n), 2)
            if rng.random() < density
        ],
    )


@settings(max_examples=150)
@given(mixed_graphs())
def test_canonical_form_matches_its_definition(G):
    assert canonical_form(G) == brute_force_canonical_form(G)


@settings(max_examples=150)
@given(flavored_graphs())
def test_key_codec_round_trips(case):
    """``graph_from_key`` reads back what the one key writer wrote: a
    canonical key gives the canonical representative, and a raw key
    (the graph in its own order) gives G's groups and edges by position."""
    _, G = case
    key, placement = canonical_form(G)
    assert graph_from_key(key) == canonical_relabel(G, placement)
    prefix, _, raw = _raw_key(G).partition(":")
    assert prefix == "raw"
    H = graph_from_key(raw)
    assert (H.vertices, H.groups, H.edges) == (tuple(map(str, range(G.n))), G.groups, G.edges)


def test_brute_force_oracle_on_symmetric_graphs():
    """Highly symmetric cases, where the search keeps many placements."""
    z2 = GROUPS[0]
    ring = [f"c{i}" for i in range(6)]
    cases = [
        LabeledGraph.build([(v, z2) for v in ring], [(ring[i], ring[i - 1], 2) for i in range(6)]),
        LabeledGraph.build([(v, z2) for v in ring], []),
        LabeledGraph.build([(v, z2) for v in ring], [(u, v, 3) for u, v in itertools.combinations(ring, 2)]),
        LabeledGraph.build(
            [(v, GROUPS[i % 2]) for i, v in enumerate(ring)],
            [(ring[i], ring[(i + 3) % 6], 4) for i in range(3)] + [(ring[i], ring[i - 1], 2 + i % 2) for i in range(6)],
        ),
    ]
    for G in cases:
        assert canonical_form(G) == brute_force_canonical_form(G)


def is_automorphism(G: LabeledGraph, perm) -> bool:
    """Brute force: perm is a bijection of vertex positions that keeps
    every vertex group and every pair's edge label (or non-edge)."""
    vs = G.vertices
    return (
        sorted(perm) == list(range(G.n))
        and all(G.groups[perm[v]] == G.groups[v] for v in range(G.n))
        and all(
            G.edge_label(vs[perm[i]], vs[perm[j]]) == G.edge_label(vs[i], vs[j])
            for i, j in itertools.combinations(range(G.n), 2)
        )
    )


def recorded_automorphisms(G: LabeledGraph) -> list:
    """The automorphisms the search merges into its orbits on G."""
    perms = []
    join = labeled_graph._join_orbits

    def recording(orbits, perm):
        perms.append(tuple(perm))
        return join(orbits, perm)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(labeled_graph, "_join_orbits", recording)
        canonical_form(G)
    return perms


@settings(max_examples=100)
@given(mixed_graphs(max_n=7))
def test_recorded_automorphisms_are_automorphisms(G):
    for perm in recorded_automorphisms(G):
        assert is_automorphism(G, perm), perm


def automorphism_count(G: LabeledGraph) -> int:
    return labeled_graph._canonical_order(G.n, [g.key() for g in G.groups], G._adj, group=True)[1][0]


@settings(max_examples=150)
@given(mixed_graphs(max_n=7))
def test_automorphism_count_matches_brute_force(G):
    assert automorphism_count(G) == brute_force_automorphism_count(G)


# (name, flavor, vertex ids in document order, edges "u-v" or "u-v:m",
#  canonical key, placement) of the benchmark's classify-search and
# classify-proofs inputs at seed 1, then of the cocktail-party graph
# K(2,2,2,2,2,2) and the complement of C12 with shuffled ids.
PINNED = [
    (
        'regular-4-10-0',
        'racg',
        'v0 v1 v2 v3 v4 v5 v6 v7 v8 v9',
        'v0-v1 v0-v2 v0-v3 v0-v9 v1-v4 v1-v5 v1-v6 v2-v3 v2-v5 v2-v8 v3-v4 v3-v6 v4-v7 v4-v8 v5-v6 v5-v7 v6-v9 v7-v8 v7-v9 v8-v9',
        '10;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,1-2:2,1-3:2,1-5:2,2-6:2,2-7:2,3-8:2,3-9:2,4-5:2,4-6:2,4-8:2,5-7:2,5-9:2,6-8:2,6-9:2,7-8:2,7-9:2',
        'v7 v8 v4 v9 v5 v2 v1 v3 v6 v0',
    ),
    (
        'regular-4-10-1',
        'racg',
        'v0 v1 v2 v3 v4 v5 v6 v7 v8 v9',
        'v0-v1 v0-v2 v0-v3 v0-v5 v1-v2 v1-v4 v1-v8 v2-v6 v2-v8 v3-v4 v3-v6 v3-v7 v4-v5 v4-v9 v5-v7 v5-v9 v6-v7 v6-v8 v7-v9 v8-v9',
        '10;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,1-2:2,1-3:2,1-5:2,2-4:2,2-6:2,3-7:2,3-8:2,4-7:2,4-9:2,5-6:2,5-7:2,5-8:2,6-8:2,6-9:2,7-9:2,8-9:2',
        'v2 v1 v8 v0 v6 v4 v9 v3 v5 v7',
    ),
    (
        'regular-4-10-2',
        'racg',
        'v0 v1 v2 v3 v4 v5 v6 v7 v8 v9',
        'v0-v1 v0-v2 v0-v4 v0-v8 v1-v2 v1-v8 v1-v9 v2-v3 v2-v5 v3-v4 v3-v5 v3-v8 v4-v6 v4-v7 v5-v6 v5-v9 v6-v7 v6-v9 v7-v8 v7-v9',
        '10;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,1-2:2,1-3:2,1-5:2,2-4:2,2-6:2,3-7:2,3-8:2,4-7:2,4-9:2,5-6:2,5-7:2,5-8:2,6-8:2,6-9:2,7-9:2,8-9:2',
        'v6 v7 v9 v4 v5 v8 v1 v3 v0 v2',
    ),
    (
        'regular-4-10-3',
        'racg',
        'v0 v1 v2 v3 v4 v5 v6 v7 v8 v9',
        'v0-v1 v0-v2 v0-v5 v0-v9 v1-v2 v1-v6 v1-v8 v2-v5 v2-v9 v3-v4 v3-v6 v3-v7 v3-v9 v4-v5 v4-v6 v4-v8 v5-v7 v6-v8 v7-v8 v7-v9',
        '10;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,1-2:2,1-3:2,1-4:2,2-5:2,2-6:2,3-5:2,3-7:2,4-8:2,4-9:2,5-6:2,5-8:2,6-7:2,6-9:2,7-8:2,7-9:2,8-9:2',
        'v0 v2 v9 v5 v1 v7 v3 v4 v8 v6',
    ),
    (
        'regular-4-10-4',
        'racg',
        'v0 v1 v2 v3 v4 v5 v6 v7 v8 v9',
        'v0-v3 v0-v4 v0-v6 v0-v8 v1-v2 v1-v7 v1-v8 v1-v9 v2-v3 v2-v4 v2-v7 v3-v5 v3-v6 v4-v5 v4-v7 v5-v6 v5-v9 v6-v8 v7-v9 v8-v9',
        '10;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,1-2:2,1-3:2,1-5:2,2-4:2,2-6:2,3-5:2,3-7:2,4-8:2,4-9:2,5-6:2,5-8:2,6-7:2,6-9:2,7-8:2,7-9:2,8-9:2',
        'v1 v7 v9 v2 v8 v4 v5 v3 v0 v6',
    ),
    (
        'cocktail-party-4',
        'racg',
        'v573 v281 v665 v778 v825 v642 v528 v759',
        'v573-v281 v573-v665 v573-v778 v573-v642 v573-v528 v573-v759 v281-v665 v281-v778 v281-v825 v281-v528 v281-v759 v665-v825 v665-v642 v665-v528 v665-v759 v778-v825 v778-v642 v778-v528 v778-v759 v825-v642 v825-v528 v825-v759 v642-v528 v642-v759',
        '8;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,0-5:2,0-6:2,1-2:2,1-3:2,1-4:2,1-5:2,1-7:2,2-3:2,2-4:2,2-6:2,2-7:2,3-5:2,3-6:2,3-7:2,4-5:2,4-6:2,4-7:2,5-6:2,5-7:2,6-7:2',
        'v573 v281 v665 v528 v759 v778 v642 v825',
    ),
    (
        'cycle-12',
        'racg',
        'v835 v581 v151 v777 v311 v941 v145 v666 v130 v696 v357 v340',
        'v835-v581 v835-v666 v581-v696 v151-v145 v151-v130 v777-v941 v777-v130 v311-v666 v311-v340 v941-v340 v145-v357 v696-v357',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,1-3:2,2-4:2,3-5:2,4-6:2,5-7:2,6-8:2,7-9:2,8-10:2,9-11:2,10-11:2',
        'v835 v581 v666 v696 v311 v357 v340 v145 v941 v151 v777 v130',
    ),
    (
        'grid-3x4',
        'racg',
        'v557 v171 v893 v402 v818 v976 v640 v183 v252 v780 v845 v315',
        'v557-v402 v557-v640 v557-v780 v171-v818 v171-v252 v171-v315 v893-v640 v893-v183 v893-v780 v402-v818 v402-v315 v818-v780 v818-v845 v976-v183 v976-v780 v976-v845 v252-v845',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-4:2,0-6:2,1-4:2,1-7:2,2-5:2,2-8:2,3-5:2,3-9:2,4-10:2,5-11:2,6-8:2,6-10:2,7-9:2,7-10:2,8-11:2,9-11:2,10-11:2',
        'v640 v183 v315 v252 v893 v171 v557 v976 v402 v845 v780 v818',
    ),
    (
        'wheel-12',
        'racg',
        'v318 v905 v365 v255 v150 v551 v100 v728 v311 v366 v424 v510',
        'v318-v365 v318-v311 v318-v510 v905-v100 v905-v424 v905-v510 v365-v424 v365-v510 v255-v150 v255-v728 v255-v510 v150-v366 v150-v510 v551-v311 v551-v366 v551-v510 v100-v728 v100-v510 v728-v510 v311-v510 v366-v510 v424-v510',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-11:2,1-3:2,1-11:2,2-4:2,2-11:2,3-5:2,3-11:2,4-6:2,4-11:2,5-7:2,5-11:2,6-8:2,6-11:2,7-9:2,7-11:2,8-10:2,8-11:2,9-10:2,9-11:2,10-11:2',
        'v318 v365 v311 v424 v551 v905 v366 v100 v150 v728 v255 v510',
    ),
    (
        'c6-plus-c6',
        'racg',
        'v636 v256 v119 v630 v840 v621 v759 v715 v951 v230 v833 v802',
        'v636-v119 v636-v715 v256-v951 v256-v802 v119-v630 v630-v759 v840-v833 v840-v802 v621-v759 v621-v715 v951-v230 v230-v833',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,1-3:2,2-4:2,3-5:2,4-5:2,6-7:2,6-8:2,7-9:2,8-10:2,9-11:2,10-11:2',
        'v636 v119 v715 v630 v621 v759 v256 v951 v802 v230 v840 v833',
    ),
    (
        'k33-plus-c6',
        'racg',
        'v448 v852 v858 v442 v240 v567 v242 v705 v761 v245 v173 v570',
        'v448-v858 v448-v242 v852-v240 v852-v245 v858-v245 v442-v567 v442-v761 v442-v173 v240-v242 v567-v705 v567-v570 v705-v761 v705-v173 v761-v570 v173-v570',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,1-3:2,2-4:2,3-5:2,4-5:2,6-7:2,6-8:2,6-9:2,7-10:2,7-11:2,8-10:2,8-11:2,9-10:2,9-11:2',
        'v448 v858 v242 v245 v240 v852 v442 v567 v761 v173 v705 v570',
    ),
    (
        'coxeter-cycle-12-3',
        'coxeter',
        'v725 v883 v769 v428 v847 v980 v934 v836 v352 v835 v120 v343',
        'v725-v847:3 v725-v343:3 v883-v836:3 v883-v343:3 v769-v980:3 v769-v934:3 v428-v352:3 v428-v835:3 v847-v934:3 v980-v835:3 v836-v120:3 v352-v120:3',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:3,0-2:3,1-3:3,2-4:3,3-5:3,4-6:3,5-7:3,6-8:3,7-9:3,8-10:3,9-11:3,10-11:3',
        'v725 v847 v343 v934 v883 v769 v836 v980 v120 v835 v352 v428',
    ),
    (
        'coxeter-cycle-12-45',
        'coxeter',
        'v185 v568 v236 v221 v685 v186 v200 v743 v460 v157 v964 v740',
        'v185-v200:4 v185-v740:5 v568-v157:5 v568-v964:4 v236-v221:4 v236-v743:5 v221-v186:5 v685-v743:4 v685-v964:5 v186-v740:4 v200-v460:5 v460-v157:4',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:4,0-2:5,1-3:5,2-4:4,3-5:4,4-6:5,5-7:5,6-8:4,7-9:4,8-10:5,9-11:5,10-11:4',
        'v185 v200 v740 v460 v186 v157 v221 v568 v236 v964 v743 v685',
    ),
    (
        'artin-path-12-3',
        'artin',
        'v818 v682 v129 v576 v491 v254 v520 v730 v851 v352 v473 v240',
        'v818-v682:3 v818-v240:3 v682-v352:3 v129-v491:3 v129-v240:3 v576-v254:3 v576-v352:3 v491-v473:3 v254-v851:3 v520-v730:3 v730-v473:3',
        '12;1|;1|;1|;1|;1|;1|;1|;1|;1|;1|;1|;1|;0-2:3,1-3:3,2-4:3,3-5:3,4-6:3,5-7:3,6-8:3,7-9:3,8-10:3,9-11:3,10-11:3',
        'v520 v851 v730 v254 v473 v576 v491 v352 v129 v682 v240 v818',
    ),
    (
        'artin-cycle-12-3',
        'artin',
        'v774 v817 v978 v558 v566 v479 v718 v906 v102 v791 v462 v621',
        'v774-v558:3 v774-v462:3 v817-v718:3 v817-v462:3 v978-v566:3 v978-v906:3 v558-v479:3 v566-v479:3 v718-v102:3 v906-v791:3 v102-v621:3 v791-v621:3',
        '12;1|;1|;1|;1|;1|;1|;1|;1|;1|;1|;1|;1|;0-1:3,0-2:3,1-3:3,2-4:3,3-5:3,4-6:3,5-7:3,6-8:3,7-9:3,8-10:3,9-11:3,10-11:3',
        'v774 v558 v462 v479 v817 v566 v718 v978 v102 v906 v621 v791',
    ),
    (
        'cocktail-party-6',
        'racg',
        'v773 v380 v246 v111 v375 v782 v458 v585 v641 v483 v490 v594',
        'v641-v380 v782-v380 v782-v490 v585-v380 v458-v483 v773-v246 v782-v111 v375-v641 v585-v111 v773-v490 v641-v458 v490-v594 v246-v111 v375-v594 v641-v490 v490-v380 v585-v773 v641-v246 v458-v380 v641-v483 v375-v490 v773-v111 v246-v483 v483-v594 v375-v380 v490-v483 v585-v782 v773-v594 v375-v111 v782-v594 v375-v483 v458-v111 v375-v773 v773-v782 v641-v594 v585-v594 v782-v483 v585-v483 v641-v782 v773-v380 v458-v594 v375-v246 v246-v380 v458-v246 v111-v594 v585-v641 v585-v490 v773-v483 v246-v594 v483-v380 v458-v490 v641-v111 v585-v246 v375-v782 v490-v111 v782-v246 v585-v458 v375-v458 v111-v380 v773-v458',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,0-5:2,0-6:2,0-7:2,0-8:2,0-9:2,0-10:2,1-2:2,1-3:2,1-4:2,1-5:2,1-6:2,1-7:2,1-8:2,1-9:2,1-11:2,2-3:2,2-4:2,2-5:2,2-6:2,2-7:2,2-8:2,2-10:2,2-11:2,3-4:2,3-5:2,3-6:2,3-7:2,3-9:2,3-10:2,3-11:2,4-5:2,4-6:2,4-8:2,4-9:2,4-10:2,4-11:2,5-7:2,5-8:2,5-9:2,5-10:2,5-11:2,6-7:2,6-8:2,6-9:2,6-10:2,6-11:2,7-8:2,7-9:2,7-10:2,7-11:2,8-9:2,8-10:2,8-11:2,9-10:2,9-11:2,10-11:2',
        'v773 v380 v246 v111 v375 v782 v458 v585 v483 v490 v594 v641',
    ),
    (
        'cycle-12-complement',
        'racg',
        'v283 v133 v929 v490 v612 v686 v979 v540 v128 v883 v623 v942',
        'v942-v133 v612-v979 v686-v128 v929-v133 v490-v979 v686-v540 v942-v540 v490-v540 v612-v128 v883-v490 v623-v883 v686-v883 v283-v540 v283-v979 v612-v540 v929-v128 v128-v979 v883-v283 v128-v540 v623-v540 v623-v929 v929-v283 v623-v979 v283-v490 v929-v540 v623-v942 v623-v490 v979-v133 v128-v133 v612-v942 v686-v942 v686-v612 v686-v979 v612-v490 v883-v979 v283-v133 v929-v612 v929-v490 v686-v490 v929-v979 v883-v942 v883-v133 v623-v283 v283-v942 v612-v133 v929-v942 v883-v540 v490-v133 v883-v128 v623-v612 v686-v133 v128-v942 v623-v128 v686-v283',
        '12;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0|2;0-1:2,0-2:2,0-3:2,0-4:2,0-5:2,0-6:2,0-7:2,0-8:2,0-9:2,1-2:2,1-3:2,1-4:2,1-5:2,1-6:2,1-7:2,1-8:2,1-10:2,2-3:2,2-4:2,2-5:2,2-6:2,2-7:2,2-9:2,2-11:2,3-4:2,3-5:2,3-6:2,3-8:2,3-10:2,3-11:2,4-5:2,4-7:2,4-9:2,4-10:2,4-11:2,5-8:2,5-9:2,5-10:2,5-11:2,6-7:2,6-8:2,6-9:2,6-10:2,6-11:2,7-8:2,7-9:2,7-10:2,7-11:2,8-9:2,8-10:2,8-11:2,9-10:2,9-11:2,10-11:2',
        'v283 v490 v883 v979 v686 v133 v623 v540 v929 v942 v612 v128',
    ),
]


def _pinned_graph(flavor: str, vertices: str, edges: str) -> LabeledGraph:
    doc = {"flavor": flavor, "vertices": [{"id": v} for v in vertices.split()], "edges": []}
    for item in edges.split():
        pair, _, label = item.partition(":")
        u, v = pair.split("-")
        doc["edges"].append({"u": u, "v": v, "label": int(label or 2)})
    return parse_graph(json.dumps(doc))


@pytest.mark.parametrize(
    "flavor, vertices, edges, key, placement",
    [case[1:] for case in PINNED],
    ids=[case[0] for case in PINNED],
)
def test_pinned_keys_and_placements(flavor, vertices, edges, key, placement):
    assert canonical_form(_pinned_graph(flavor, vertices, edges)) == (key, tuple(placement.split()))


# -- networkx oracle on symmetric graphs ---------------------------------------


def _circulant(n: int, jumps, label: int = 2):
    return n, sorted({(min(i, (i + j) % n), max(i, (i + j) % n), label) for i in range(n) for j in jumps})


def _disjoint_union(a, b):
    return a[0] + b[0], a[1] + [(i + a[0], j + a[0], m) for i, j, m in b[1]]


def _prism(k: int):
    n, edges = _disjoint_union(_circulant(k, (1,)), _circulant(k, (1,)))
    return n, edges + [(i, i + k, 2) for i in range(k)]


def _moebius_ladder(k: int):
    n, ring = _circulant(2 * k, (1,))
    return n, ring + [(i, i + k, 2) for i in range(k)]


def _petersen():
    outer = [(i, (i + 1) % 5, 2) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5, 2) for i in range(5)]
    return 10, outer + inner + [(i, i + 5, 2) for i in range(5)]


def _complete_multipartite(parts: int, size: int):
    n = parts * size
    return n, [(i, j, 2) for i, j in itertools.combinations(range(n), 2) if i // size != j // size]


def _coxeter_cycle(labels):
    n = len(labels)
    return n, [(i, (i + 1) % n, m) if i + 1 < n else (0, n - 1, m) for i, m in enumerate(labels)]


def _family():
    """(name, groups or None for all-Z2, (n, edges)) of symmetric graphs,
    with pairs that are isomorphic by a less obvious map (circulants
    C_n(S) and C_n(aS), a coprime to n; rotated and reflected label
    patterns) and pairs that share degrees but are not."""
    z2, z3 = GROUPS[0], GROUPS[1]
    return [
        ("C12", None, _circulant(12, (1,))),
        ("C6+C6", None, _disjoint_union(_circulant(6, (1,)), _circulant(6, (1,)))),
        ("C12(1,2)", None, _circulant(12, (1, 2))),
        ("C12(5,2)", None, _circulant(12, (5, 2))),
        ("C12(1,3)", None, _circulant(12, (1, 3))),
        ("C12(5,3)", None, _circulant(12, (5, 3))),
        ("C12(1,5)", None, _circulant(12, (1, 5))),
        ("C12(2,3)", None, _circulant(12, (2, 3))),
        ("C11(1,2)", None, _circulant(11, (1, 2))),
        ("C11(1,3)", None, _circulant(11, (1, 3))),
        ("C11(3,5)", None, _circulant(11, (3, 5))),
        ("C10(1,4)", None, _circulant(10, (1, 4))),
        ("C9(1,2)", None, _circulant(9, (1, 2))),
        ("C9(1,4)", None, _circulant(9, (1, 4))),
        ("prism-6", None, _prism(6)),
        ("moebius-6", None, _moebius_ladder(6)),
        ("prism-5", None, _prism(5)),
        ("moebius-5", None, _moebius_ladder(5)),
        ("petersen", None, _petersen()),
        ("K(2,2,2,2)", None, _complete_multipartite(4, 2)),
        ("K(3,3,3)", None, _complete_multipartite(3, 3)),
        ("K(4,4,4)", None, _complete_multipartite(3, 4)),
        ("K(2,2,2,2,2,2)", None, _complete_multipartite(6, 2)),
        ("co-C12", None, _circulant(12, (2, 3, 4, 5, 6))),
        ("coxeter-C12-3", None, _coxeter_cycle([3] * 12)),
        ("coxeter-C12-45", None, _coxeter_cycle([4, 5] * 6)),
        ("coxeter-C12-54", None, _coxeter_cycle([5, 4] * 6)),
        ("coxeter-C12-4455", None, _coxeter_cycle([4, 4, 5, 5] * 3)),
        ("coxeter-C12-5445", None, _coxeter_cycle([5, 4, 4, 5] * 3)),
        ("coxeter-C12-444555", None, _coxeter_cycle([4, 4, 4, 5, 5, 5] * 2)),
        ("prism-6-one-z3", [z3] + [z2] * 11, _prism(6)),
        ("prism-6-other-z3", [z2] * 6 + [z3] + [z2] * 5, _prism(6)),
        ("moebius-6-one-z3", [z2] * 5 + [z3] + [z2] * 6, _moebius_ladder(6)),
        ("C12-alternating-z3", [z2, z3] * 6, _circulant(12, (1,))),
        ("C12-paired-z3", [z2, z2, z3, z3] * 3, _circulant(12, (1,))),
    ]


def _build(groups, n_edges, rng: random.Random) -> LabeledGraph:
    """The graph with its vertex order shuffled and random ids."""
    n, edges = n_edges
    groups = groups or [GROUPS[0]] * n
    ids = [f"u{k}" for k in rng.sample(range(1000), n)]
    order = list(range(n))
    rng.shuffle(order)
    return LabeledGraph.build(
        [(ids[k], groups[k]) for k in order],
        [(ids[i], ids[j], m) for i, j, m in edges],
    )


def _to_nx(nx, G: LabeledGraph):
    H = nx.Graph()
    H.add_nodes_from((v, {"group": g}) for v, g in zip(G.vertices, G.groups))
    H.add_edges_from((G.vertices[i], G.vertices[j], {"label": m}) for i, j, m in G.edges)
    return H


def test_symmetric_graphs_record_automorphisms():
    """Every graph of the family has a nontrivial automorphism, so the
    search prunes with some, and each one it records is one."""
    rng = random.Random(5)
    for name, groups, n_edges in _family():
        G = _build(groups, n_edges, rng)
        perms = recorded_automorphisms(G)
        assert perms, name
        assert all(is_automorphism(G, perm) for perm in perms), name


def test_keys_separate_exactly_the_networkx_isomorphism_classes():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    graphs = []
    for name, groups, n_edges in _family():
        # Two independently shuffled and renamed copies of each.
        graphs += [(name, _build(groups, n_edges, rng)) for _ in range(2)]
    forms = [canonical_form(G) for _, G in graphs]
    nx_graphs = [_to_nx(nx, G) for _, G in graphs]
    for a, b in itertools.combinations(range(len(graphs)), 2):
        iso = nx.is_isomorphic(
            nx_graphs[a],
            nx_graphs[b],
            node_match=lambda x, y: x["group"] == y["group"],
            edge_match=lambda x, y: x["label"] == y["label"],
        )
        assert (forms[a][0] == forms[b][0]) == iso, (graphs[a][0], graphs[b][0])
        if iso:
            # Isomorphic inputs have one canonical graph.
            assert canonical_graph(graphs[a][1])[0] == canonical_graph(graphs[b][1])[0]
    classes = len({key for key, _ in forms})
    # The family has both isomorphic and non-isomorphic pairs to tell apart.
    assert len(graphs) // 2 > classes > 1


@pytest.mark.parametrize(
    "name, n_edges, count",
    [(f"C{n}", _circulant(n, (1,)), 2 * n) for n in range(3, 13)]
    + [("petersen", _petersen(), 120)]
    + [(f"K(2^{k})", _complete_multipartite(k, 2), 2**k * math.factorial(k)) for k in range(1, 7)],
)
def test_automorphism_count_closed_forms(name, n_edges, count):
    G = _build(None, n_edges, random.Random(name))
    assert automorphism_count(G) == count
