"""Clique-separator and general separator split tests."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoherence import (
    GraphValidationError,
    Split,
    dirac_split,
    enumerate_separator_splits,
    is_chordal,
    is_clique_separator,
    racg,
    verify_split,
)
from graphcoherence.decomposition import separator_splits
from graphcoherence.labeled_graph import mask_components
from helpers import (
    cycle_racg,
    diamond_racg,
    path_racg,
    prism_racg,
    random_chordal_graph,
    reference_verify_split,
)


class TestCliqueSeparator:
    def test_diamond_middle_edge_separates(self):
        G = diamond_racg()
        assert is_clique_separator(G, ("left", "right"))
        assert not is_clique_separator(G, ("bottom", "top"))  # not an edge
        assert not is_clique_separator(G, ("left",))  # removal keeps G connected

    def test_path_cut_vertex(self):
        G = path_racg(3)
        assert is_clique_separator(G, ("v1",))
        assert not is_clique_separator(G, ("v0",))

    def test_empty_set_separates_disconnected_graph(self):
        G = racg(["a", "b"], [])
        assert is_clique_separator(G, ())


class TestVerifySplit:
    def test_valid_split_accepted(self):
        G = diamond_racg()
        s = Split(
            separator=("left", "right"),
            left=("bottom", "left", "right"),
            right=("left", "right", "top"),
            method="search",
        )
        assert verify_split(G, s)

    def test_side_missing_separator_rejected(self):
        G = diamond_racg()
        s = Split(
            separator=("left", "right"),
            left=("bottom",),
            right=("left", "right", "top"),
            method="search",
        )
        assert not verify_split(G, s)

    def test_crossing_edge_rejected(self):
        G = diamond_racg()
        # bottom -- right crosses between the open sides
        s = Split(
            separator=("left",),
            left=("bottom", "left"),
            right=("left", "right", "top"),
            method="search",
        )
        assert not verify_split(G, s)

    def test_improper_side_rejected(self):
        G = diamond_racg()
        s = Split(
            separator=("left", "right"),
            left=("bottom", "left", "right"),
            right=("left", "right"),
            method="search",
        )
        assert not verify_split(G, s)

    def test_bad_cover_rejected(self):
        G = path_racg(4)
        s = Split(
            separator=("v1",),
            left=("v0", "v1"),
            right=("v1", "v2"),
            method="search",
        )
        assert not verify_split(G, s)  # v3 uncovered

    def test_overlapping_sides_rejected(self):
        G = diamond_racg()
        s = Split(
            separator=("left",),
            left=("bottom", "left", "right"),
            right=("left", "right", "top"),
            method="search",
        )
        assert not verify_split(G, s)  # sides intersect beyond the separator


class TestDiracSplit:
    def test_diamond(self):
        G = diamond_racg()
        s = dirac_split(G)
        assert verify_split(G, s)
        assert s.method == "dirac"
        assert is_clique_separator(G, s.separator)
        assert s.separator == ("left", "right")

    def test_complete_graph_rejected(self):
        ids = ["a", "b", "c"]
        K3 = racg(ids, [(u, v) for u, v in itertools.combinations(ids, 2)])
        with pytest.raises(GraphValidationError):
            dirac_split(K3)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            dirac_split(racg(["a", "b"], []))

    def test_paths_and_trees(self):
        for n in (3, 5, 9):
            G = path_racg(n)
            s = dirac_split(G)
            assert verify_split(G, s)
            assert len(s.separator) == 1

    def test_random_chordal_graphs(self):
        rng = random.Random(424242)
        checked = 0
        for _ in range(200):
            G = random_chordal_graph(rng, 10, min_n=2)
            if not G.is_connected() or G.is_complete():
                continue
            s = dirac_split(G)
            assert verify_split(G, s)
            assert is_clique_separator(G, s.separator)
            # both sides strictly smaller, so recursion terminates
            assert len(s.left) < G.n and len(s.right) < G.n
            checked += 1
        assert checked > 100

    def test_separator_sides_stay_chordal(self):
        rng = random.Random(77)
        for _ in range(60):
            G = random_chordal_graph(rng, 9, min_n=3)
            if not G.is_connected() or G.is_complete():
                continue
            s = dirac_split(G)
            assert is_chordal(G.induced(s.left))
            assert is_chordal(G.induced(s.right))


class TestEnumerateSeparatorSplits:
    def test_square_splits(self):
        G = cycle_racg(4)
        splits = list(enumerate_separator_splits(G))
        assert splits
        for s in splits:
            assert verify_split(G, s)
            assert s.method == "search"
        seps = {s.separator for s in splits}
        assert ("v0", "v2") in seps and ("v1", "v3") in seps

    def test_deterministic_order(self):
        G = cycle_racg(5)
        a = list(enumerate_separator_splits(G))
        b = list(enumerate_separator_splits(G))
        assert a == b

    def test_smallest_separators_first(self):
        G = path_racg(4)
        sizes = [len(s.separator) for s in enumerate_separator_splits(G)]
        assert sizes == sorted(sizes)

    def test_complete_graph_yields_nothing(self):
        ids = ["a", "b", "c", "d"]
        K4 = racg(ids, [(u, v) for u, v in itertools.combinations(ids, 2)])
        assert list(enumerate_separator_splits(K4)) == []

    def test_every_prism_split_is_genuine(self):
        G = prism_racg()
        splits = list(enumerate_separator_splits(G))
        assert splits
        for s in splits:
            assert verify_split(G, s)
            # prism is 3-connected
            assert len(s.separator) >= 3


@st.composite
def graphs_with_splits(draw):
    """A graph on up to 7 vertices with a split to check: mostly a real
    split of the graph (along a separator, or along the empty one when
    it is disconnected), else each vertex placed on the left, the
    right, the separator or nowhere.  Then up to three edits
    each drop an id from one list or add one to it, known, repeated or
    unknown, so sides overlap beyond the separator or miss vertices,
    and separators come out empty."""
    n = draw(st.integers(1, 7))
    ids = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(ids, 2))
    G = racg(ids, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    splits = list(enumerate_separator_splits(G))
    comps = mask_components(G.adjacency_masks, (1 << n) - 1)
    if len(comps) > 1:
        splits += separator_splits(G, 0, comps)
    if splits and draw(st.integers(0, 3)):
        split = draw(st.sampled_from(splits))
        lists = [list(split.left), list(split.right), list(split.separator)]
    else:
        place = draw(st.lists(st.sampled_from("lrsn"), min_size=n, max_size=n))
        lists = [[v for v, p in zip(ids, place) if p in where] for where in ("ls", "rs", "s")]
    for _ in range(draw(st.integers(0, 3))):
        target = lists[draw(st.integers(0, 2))]
        if target and draw(st.booleans()):
            target.pop(draw(st.integers(0, len(target) - 1)))
        else:
            target.insert(
                draw(st.integers(0, len(target))), draw(st.sampled_from(ids + ["zz", "v"]))
            )
    left, right, sep = lists
    return G, Split(separator=tuple(sep), left=tuple(left), right=tuple(right))


@settings(max_examples=600, deadline=None)
@given(graphs_with_splits())
def test_verify_split_agrees_with_the_id_set_oracle(case):
    """The bitmask check accepts and refuses exactly the splits that the
    check on id sets did."""
    G, split = case
    assert verify_split(G, split) == reference_verify_split(G, split)
