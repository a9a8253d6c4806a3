"""Memo entries hold their parts' evidence by reference, renamed only
when a verdict leaves the classifier: the verdicts and JSON forms equal
those of the classifier that renames at every level, no reference leaves
the engine, and each output node is renamed once."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcoherence import (
    Z,
    Z2,
    artin_graph,
    canonical_form,
    coxeter_graph,
    cycle_edges,
    cyclic,
    graph_product_graph,
    raag,
)
from graphcoherence import census, coherence_engine
from graphcoherence.census import CensusConfig, run_census
from graphcoherence.coherence_engine import (
    Classifier,
    IncoherentFactor,
    ProofNode,
    UnknownNote,
    verdict_from_jsonable,
    verdict_to_jsonable,
)
from graphcoherence.labeled_graph import canonical_relabel
from helpers import EagerClassifier, cycle_racg
from test_separator_walk import graphs

_POOL = (Z, Z2, cyclic(3))


def _pentagon_product(core, extra_groups, extra_edges):
    """A graph product over the induced pentagon a..e of ``core``
    vertices, with more vertices and edges."""
    ids = list("abcde")
    return graph_product_graph(
        [(x, core) for x in ids] + list(extra_groups), cycle_edges(ids) + list(extra_edges)
    )


# A Z pentagon two splits deep: an incoherent_factor inside an
# incoherent_factor inside an incoherent_factor.
NESTED_FACTORS = _pentagon_product(
    Z, [("w", Z2), ("x", Z2), ("y", Z2)], [("a", "w"), ("w", "x"), ("x", "y")]
)
# A Z_3 pentagon beside another component: an open problem, so the free
# product's notes carry a component-unknown note and the pentagon's
# open-problem note, with vertices.
UNKNOWN_COMPONENT = _pentagon_product(cyclic(3), [("x", cyclic(3)), ("y", Z2)], [("x", "y")])


@st.composite
def planted_graphs(draw, max_n: int = 9):
    """Graph products over an induced pentagon of Z or of Z_3 vertices,
    with up to ``max_n - 5`` more vertices of random groups and edges,
    under shuffled ids.  A Z pentagon is incoherent only as an induced
    subgraph, so its witnesses are incoherent_factor ones, nested when
    the pentagon lies several parts deep; a Z_3 pentagon is an open
    problem, which gives component-unknown notes."""
    core = draw(st.sampled_from((Z, cyclic(3))))
    extra = draw(st.integers(0, max_n - 5))
    rng = draw(st.randoms(use_true_random=False))
    ids = [f"v{i}" for i in range(5 + extra)]
    rng.shuffle(ids)
    groups = [core] * 5 + [rng.choice(_POOL) for _ in range(extra)]
    edges = [(ids[i], ids[(i + 1) % 5]) for i in range(5)]
    edges += [
        (ids[i], ids[j]) for i in range(5, 5 + extra) for j in range(i) if rng.random() < 0.3
    ]
    return graph_product_graph(list(zip(ids, groups)), edges)


def _references(obj):
    """Every memo reference reachable from ``obj`` through dataclass
    fields, sequences and dict values."""
    if isinstance(obj, coherence_engine._Ref):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _references(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _references(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _references(x)


def _canonical(G):
    key, placement = canonical_form(G)
    return canonical_relabel(G, placement), key


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(max_n=9), planted_graphs()))
@example(NESTED_FACTORS)
@example(UNKNOWN_COMPONENT)
def test_verdicts_equal_the_eager_oracle(G):
    lazy, eager = Classifier(), EagerClassifier()
    v = lazy.classify(G)
    assert v == eager.classify(G)
    assert json.dumps(verdict_to_jsonable(v)) == json.dumps(verdict_to_jsonable(eager.classify(G)))
    CG, key = _canonical(G)
    expected = verdict_from_jsonable(eager.classify_canonical_jsonable(CG, key))
    canonical = verdict_from_jsonable(lazy.classify_canonical_jsonable(CG, key))
    assert canonical == expected
    expected_json = json.dumps(verdict_to_jsonable(expected))
    assert json.dumps(lazy.classify_canonical_jsonable(CG, key)) == expected_json
    # A cold classifier's JSON form, written from its memo entry at once.
    assert json.dumps(Classifier().classify_canonical_jsonable(CG, key)) == expected_json
    assert not list(_references(v)) and not list(_references(canonical))


def test_pinned_cases_reach_factors_and_notes_under_references():
    """The two ``@example`` graphs above hold what the oracle test must
    see resolved: references inside witnesses and inside notes."""
    witness = Classifier().classify(NESTED_FACTORS).witness
    depth = 0
    while isinstance(witness, IncoherentFactor):
        depth, witness = depth + 1, witness.inner
    assert depth == 3
    notes = Classifier().classify(UNKNOWN_COMPONENT).notes
    codes = [n.code for n in notes]
    assert "component-unknown" in codes
    assert any(n.vertices and n.code == "open-problem" for n in notes)
    # The open-problem note is the pentagon's, renamed from its memo entry.
    note = next(n for n in notes if n.code == "open-problem")
    assert sorted(note.vertices) == list("abcde")


@pytest.mark.parametrize(
    "G",
    [NESTED_FACTORS, UNKNOWN_COMPONENT, cycle_racg(12)],
    ids=["nested-factors", "unknown-component", "cycle-12"],
)
def test_no_reference_leaves_the_classifier(G):
    clf = Classifier()
    CG, key = _canonical(G)
    canonical = verdict_from_jsonable(clf.classify_canonical_jsonable(CG, key))
    for verdict in (clf.classify(G), canonical, clf.classify(G)):
        assert not list(_references(verdict))
    # The memo itself does hold references: they are what is tested for.
    assert any(True for entry in clf._cache.values() for _ in _references(entry))


def test_no_reference_reaches_a_census_record(monkeypatch, tmp_path):
    records = []
    job = census._record_job

    def recording(*args):
        out = job(*args)
        records.append(out[3])
        return out

    monkeypatch.setattr(census, "_record_job", recording)
    run_census(CensusConfig(flavor="racg", max_vertices=6), out_path=str(tmp_path / "r.jsonl"))
    assert len(records) == 208
    assert sum(r["verdict"]["status"] == "COHERENT" for r in records) > 100
    assert not list(_references(records))
    assert all(json.loads(json.dumps(r)) == r for r in records)


# One COHERENT graph of each flavor.  The RACG, Coxeter and
# graph-product proofs have slender or abelian leaves whose data nests a
# certificate with a list of factor dicts; the RAAG and Artin proofs are
# single leaves, so their root is the memo entry itself.
ISOLATION_GRAPHS = {
    "racg": cycle_racg(6),
    "raag": raag(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")]),
    "artin": artin_graph(list("abcd"), [("a", "b", 3), ("b", "c", 2), ("c", "d", 2), ("b", "d", 2)]),
    "coxeter": coxeter_graph(list("abcdef"), [(u, v, 3) for u, v in cycle_edges(list("abcdef"))]),
    "graph_product": graph_product_graph(
        [(v, cyclic(3)) for v in "abcde"], cycle_edges(list("abcde"))[:4] + [("c", "e")]
    ),
}


def _vandalize(obj) -> int:
    """Clear every dict and list inside ``obj``, innermost first, leave
    a marker in each, and return how many there were."""
    if isinstance(obj, dict):
        hit = 1 + sum(_vandalize(x) for x in obj.values())
        obj.clear()
        obj["vandal"] = True
        return hit
    if isinstance(obj, list):
        hit = 1 + sum(_vandalize(x) for x in obj)
        obj[:] = ["vandal"]
        return hit
    return 0


def _proof_data(node: ProofNode):
    yield node.data
    for child in node.children:
        yield from _proof_data(child)


@pytest.mark.parametrize("flavor", sorted(ISOLATION_GRAPHS))
def test_returned_evidence_shares_no_dict_with_the_memo(flavor):
    """Mutating every dict and list of a returned verdict's proof data,
    and of a census record's JSON, changes nothing the classifier
    returns later: its memo shares no dict with what it hands out."""
    G = ISOLATION_GRAPHS[flavor]
    H = G.permuted(G.vertices[::-1]).relabeled({v: "x" + v for v in G.vertices})
    CG, key = _canonical(G)

    def outputs(clf):
        return (
            json.dumps(verdict_to_jsonable(clf.classify(G))),
            json.dumps(verdict_to_jsonable(clf.classify(H))),
            json.dumps(clf.classify_canonical_jsonable(CG, key)),
        )

    clf = Classifier()
    data = list(_proof_data(clf.classify(G).proof))
    certified = any("certificate" in d for d in data)
    assert certified == (flavor not in ("raag", "artin"))
    assert sum(_vandalize(d) for d in data) >= len(data)
    assert outputs(clf) == outputs(Classifier())
    assert _vandalize(clf.classify_canonical_jsonable(CG, key)) > 0
    assert outputs(clf) == outputs(Classifier())


def _nodes(node: ProofNode) -> int:
    return 1 + sum(_nodes(child) for child in node.children)


def _count_walks(monkeypatch, kind) -> list:
    """Every object of type ``kind`` that ``coherence_engine.to_jsonable``
    is called on from now on, the walker's recursive calls included."""
    visits = []
    walk = coherence_engine.to_jsonable

    def counting(obj, mapping=None):
        if type(obj) is kind:
            visits.append(obj)
        return walk(obj, mapping)

    monkeypatch.setattr(coherence_engine, "to_jsonable", counting)
    return visits


def test_each_output_node_is_renamed_once(monkeypatch):
    """One ``classify`` of the 12-cycle renames each node of its proof
    once: ``to_jsonable`` visits as many proof nodes as the proof has.
    (A classifier that renames at every level visits a node at depth d
    d + 1 times.)"""
    visits = _count_walks(monkeypatch, ProofNode)
    v = Classifier().classify(cycle_racg(12))
    assert v.proof.rule == "amalgam"
    assert _nodes(v.proof) > 12
    assert len(visits) == _nodes(v.proof)


def test_each_output_note_is_renamed_once(monkeypatch):
    visits = _count_walks(monkeypatch, UnknownNote)
    v = Classifier().classify(UNKNOWN_COMPONENT)
    assert len(visits) == len(v.notes) > 1
