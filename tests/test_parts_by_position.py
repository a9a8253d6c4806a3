"""Parts by position: the classifier reads a part's structure from its
positions in the parent graph, and a part that both memos hold is
decided with no graph built.

``substructure`` must give the structure of the graph that
``induced_as_listed`` builds, and of one built from ids alone; every
induced subgraph of a graph whose labels define a group defines one, so
a hit needs no ``require_group``; and a part decided by a hit resolves
to the verdict JSON a fresh classifier gives for the induced subgraph.
"""

from __future__ import annotations

import contextlib
import io
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from graphcoherence import AbelianGroupLabel, LabeledGraph, Z, Z2, cyclic
from graphcoherence.cli import main
from graphcoherence.coherence_engine import Classifier, to_jsonable, verdict_to_jsonable
from graphcoherence.group_model import UnsupportedFlavorError, require_group
from graphcoherence.labeled_graph import detect_flavor, induced_as_listed, substructure

FLAVOR_GROUPS = {"racg": (Z2,), "coxeter": (Z2,), "raag": (Z,), "artin": (Z,)}
PRODUCT_GROUPS = (Z, Z2, cyclic(3), cyclic(6), AbelianGroupLabel(rank=2))


@st.composite
def flavored_graphs(draw, max_n=8):
    flavor = draw(st.sampled_from(("racg", "raag", "coxeter", "artin", "graph_product")))
    n = draw(st.integers(1, max_n))
    groups = FLAVOR_GROUPS.get(flavor, PRODUCT_GROUPS)
    labels = (2, 3, 4, 5) if flavor in ("coxeter", "artin") else (2,)
    ids = [f"v{i}" for i in range(n)]
    edges = [
        (u, v, draw(st.sampled_from(labels)))
        for u, v in itertools.combinations(ids, 2)
        if draw(st.booleans())
    ]
    return LabeledGraph.build([(v, draw(st.sampled_from(groups))) for v in ids], edges)


@st.composite
def listed_positions(draw, G):
    """A nonempty set of G's positions, in a drawn order."""
    chosen = draw(st.sets(st.integers(0, G.n - 1), min_size=1))
    return draw(st.permutations(sorted(chosen)))


@settings(max_examples=200)
@given(G=flavored_graphs(), data=st.data())
def test_substructure_is_the_structure_induced_in_the_listed_order(G, data):
    positions = data.draw(listed_positions(G))
    listed = tuple(G.vertices[i] for i in positions)
    H = induced_as_listed(G, positions, listed)
    # An oracle built from ids alone, through the validating constructor.
    oracle = LabeledGraph.build(
        [(v, G.group(v)) for v in listed],
        [
            (u, w, G.edge_label(u, w))
            for u, w in itertools.combinations(listed, 2)
            if G.has_edge(u, w)
        ],
    )
    assert substructure(G, positions) == (H.groups, H.edges) == (oracle.groups, oracle.edges)
    ascending = sorted(positions)
    induced = G.induced(listed)
    assert substructure(G, ascending) == (induced.groups, induced.edges)


# Labels drawn so that some graphs define no group.
MIXED_GROUPS = (Z, Z2, cyclic(3), AbelianGroupLabel(rank=1, torsion=(2,)))


@st.composite
def mixed_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    ids = [f"v{i}" for i in range(n)]
    label_pool = draw(st.sampled_from([(2,), (2, 3), (3, 4)]))
    group_pool = draw(st.sampled_from([(Z,), (Z2,), MIXED_GROUPS]))
    edges = [
        (u, v, draw(st.sampled_from(label_pool)))
        for u, v in itertools.combinations(ids, 2)
        if draw(st.booleans())
    ]
    return LabeledGraph.build([(v, draw(st.sampled_from(group_pool))) for v in ids], edges)


@settings(max_examples=200)
@given(G=mixed_graphs())
def test_every_induced_subgraph_of_a_group_graph_defines_a_group(G):
    """All-Z, all-Z2 and "every label 2" each pass to induced subgraphs,
    so a part of a graph that passes ``require_group`` passes it too,
    with at least the parent's flavor tags."""
    try:
        flavor = require_group(G)
    except UnsupportedFlavorError:
        return
    for size in range(1, G.n + 1):
        for members in itertools.combinations(G.vertices, size):
            sub = G.induced(members)
            assert require_group(sub).any
            assert set(flavor.tags()) <= set(detect_flavor(sub).tags())


@settings(max_examples=100, deadline=None)
@given(G=flavored_graphs(max_n=9), data=st.data())
def test_a_part_decided_by_a_hit_resolves_as_a_fresh_classify(G, data):
    members = data.draw(st.sets(st.sampled_from(G.vertices), min_size=1))
    positions = sorted(map(G.index, members))
    part = G.induced(members)
    clf = Classifier()
    clf.classify(G)
    clf.classify(part)
    expected = verdict_to_jsonable(Classifier().classify(part))
    with pytest.MonkeyPatch.context() as mp:
        made = []
        original = LabeledGraph.__post_init__
        mp.setattr(LabeledGraph, "__post_init__", lambda self: made.append(self) or original(self))
        mp.setattr(clf, "_memo_entry", None)  # a hit must not reach the miss path
        hit = clf._classify_part(G, positions)
    assert made == []
    assert to_jsonable(hit) == expected
    # A cold classifier takes the miss path to the same JSON.
    assert to_jsonable(Classifier()._classify_part(G, positions)) == expected


def test_a_census_builds_few_graphs_per_class(monkeypatch):
    """Memo hits build no graph: racg n <= 6 (208 classes) builds 4.8
    graphs per class, where building every part made 8.2."""
    made = []
    original = LabeledGraph.__post_init__
    monkeypatch.setattr(LabeledGraph, "__post_init__", lambda G: made.append(G.n) or original(G))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["census", "--flavor", "racg", "--max-vertices", "6"]) == 0
    classes = int(out.getvalue().rsplit("classes:", 1)[1])
    assert len(made) / classes <= 6
