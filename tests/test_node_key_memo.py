"""The canonical-form memo each classifier keeps: it returns exactly what
``canonical_form`` returns, lives as long as its classifier, and a warm
memo checks proof node keys as strictly as a fresh one.  Each canonical
representative the classifier classifies enters it, so verifying the
classifier's own evidence makes no canonical search.  The slender memo
beside it returns exactly what ``is_slender`` returns, and decides each
structure's slenderness once per classifier."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import itertools
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graphcoherence import AbelianGroupLabel, LabeledGraph, Z, Z2, cyclic, path_edges, racg
from graphcoherence import census, cli, coherence_engine, labeled_graph
from graphcoherence.census import CensusConfig, _classes, _record_job, graph_from_key
from graphcoherence.cli import main
from graphcoherence.coherence_engine import (
    COHERENT,
    Classifier,
    EngineConfig,
    _id_map,
    _raw_key,
    check_verdict,
    to_jsonable,
    verdict_from_jsonable,
    verify_proof,
)
from graphcoherence.group_model import is_slender
from graphcoherence.labeled_graph import canonical_form, positional_key
from helpers import prism_racg, reference_canonical_relabel


@pytest.fixture
def canonical_calls(monkeypatch):
    """A list that gets one entry per ``canonical_form`` call made through
    any module of the package."""
    calls = []
    original = labeled_graph.canonical_form

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return original(*args, **kwargs)

    for module in (labeled_graph, coherence_engine):
        monkeypatch.setattr(module, "canonical_form", counting)
    return calls


# -- exact hits ------------------------------------------------------------------

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


@settings(max_examples=150)
@given(G=flavored_graphs(), data=st.data(), cap=st.sampled_from([0, 4, 12]))
def test_one_structure_under_two_id_sets_gets_canonical_form_of_each(G, data, cap):
    names = data.draw(st.permutations([f"x{i}" for i in range(G.n)]))
    H = G.relabeled(dict(zip(G.vertices, names)))
    assert (H.groups, H.edges) == (G.groups, G.edges)
    clf = Classifier(EngineConfig(max_search_vertices=cap))
    for graph in (G, H, G):
        expected = canonical_form(graph, cap=cap) if graph.n <= cap else (_raw_key(graph), None)
        assert clf.node_key(graph) == expected
    assert len(clf._forms) == (G.n <= cap)


def test_the_memo_holds_no_graph_and_no_vertex_id():
    clf = Classifier()
    clf.classify(prism_racg())
    for (groups, edges), (key, order) in clf._forms.items():
        assert all(type(g) is AbelianGroupLabel for g in groups)
        assert all(type(x) is int for edge in edges for x in edge)
        assert type(key) is str and all(type(i) is int for i in order)


# -- scope -----------------------------------------------------------------------


def test_two_classifiers_share_no_memo(canonical_calls):
    G = prism_racg()
    first, second = Classifier(), Classifier()
    first.classify(G)
    cold = len(canonical_calls)
    assert cold and first._forms and not second._forms
    second.classify(G)
    assert len(canonical_calls) == 2 * cold
    assert first._forms == second._forms and first._forms is not second._forms


def test_each_census_run_starts_cold(canonical_calls):
    counts = []
    for _ in range(2):
        canonical_calls.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["census", "--flavor", "racg", "--max-vertices", "5"]) == 0
        counts.append(len(canonical_calls))
    assert counts[0] == counts[1] > 0


# -- a warm memo does not weaken the key check -------------------------------------


def nodes(node, at=()):
    yield at, node
    for i, child in enumerate(node.children):
        yield from nodes(child, at + (i,))


def with_keys(node, keys: dict, at=()):
    """The proof with the node at each child-index path in ``keys``
    given that key."""
    children = tuple(with_keys(c, keys, at + (i,)) for i, c in enumerate(node.children))
    return dataclasses.replace(node, key=keys.get(at, node.key), children=children)


def tamperings(proof):
    """The proof with two nodes' keys swapped, or a child given its
    parent's key, in every way that changes a key."""
    found = list(nodes(proof))
    for (a, x), (b, y) in itertools.combinations(found, 2):
        if x.key != y.key:
            yield with_keys(proof, {a: y.key, b: x.key})
    for at, node in found:
        for i, child in enumerate(node.children):
            if child.key != node.key:
                yield with_keys(proof, {at + (i,): node.key})


@pytest.mark.parametrize(
    "config",
    [
        CensusConfig(flavor="racg", max_vertices=5),
        CensusConfig(flavor="coxeter", max_vertices=3, edge_labels=(2, 3, 4, 5)),
    ],
    ids=["racg-5", "coxeter-3"],
)
def test_a_warm_memo_rejects_tampered_keys_as_a_fresh_check_does(config, canonical_calls):
    clf = Classifier()
    jobs = _classes(config, clf.config.max_search_vertices)
    records = [_record_job(clf, True, (*job, None))[3] for job in jobs]
    proofs = [
        (graph_from_key(rec["key"]), verdict_from_jsonable(rec["verdict"]).proof)
        for rec in records
        if rec["status"] == COHERENT
    ]
    assert proofs
    tampered = [(G, t) for G, proof in proofs for t in tamperings(proof)]
    assert tampered
    for G, proof in tampered:
        before = len(canonical_calls)
        warm = verify_proof(G, proof, classifier=clf)
        # Every subgraph of a stored proof was canonicalized already.
        assert len(canonical_calls) == before
        assert not warm
        assert warm == verify_proof(G, proof)
        assert warm.reason == "stored key does not match the induced subgraph"


# -- canonical representatives enter the memo --------------------------------------


@settings(max_examples=120)
@given(G=flavored_graphs(max_n=9))
def test_each_classified_canonical_representative_has_its_canonical_form(G):
    """The lemma of :class:`Classifier`: the identity is the canonical
    order of a canonical representative, so its memo entry is what a
    fresh classifier computes."""
    clf = Classifier()
    clf.classify(G)
    assert clf._cache
    for key in clf._cache:
        CG = graph_from_key(key)
        assert (CG.groups, CG.edges) in clf._forms
        assert clf.node_key(CG) == Classifier().node_key(CG) == (key, CG.vertices)


@settings(max_examples=150)
@given(G=flavored_graphs(max_n=9), data=st.data())
def test_a_memo_miss_classifies_the_canonical_representative(G, data):
    """Each verdict-memo miss, of the input or of a part, classifies the
    graph that the two-build relabeling gives for the graph missed, and
    that is the graph its key names."""
    order = data.draw(st.permutations(G.vertices))
    names = data.draw(st.permutations([f"x{i}" for i in range(G.n)]))
    H = G.permuted(order).relabeled(dict(zip(order, names)))
    clf = Classifier()
    entered, missed = [], []
    memo_entry, canonical = clf._memo_entry, clf._canonical

    def recording_entry(part):
        entered.append(part)
        return memo_entry(part)

    def recording_miss(CG, key):
        missed.append((CG, key))
        return canonical(CG, key)

    clf._memo_entry, clf._canonical = recording_entry, recording_miss
    clf.classify(H)
    expected = {}
    for part in entered:
        key, placement = canonical_form(part)
        expected.setdefault(key, reference_canonical_relabel(part, placement))
    assert entered[0] is H and missed[0][1] == canonical_form(H)[0]
    assert len({key for _, key in missed}) == len(missed)
    for CG, key in missed:
        assert CG == expected[key] == graph_from_key(key)


def test_a_graph_passed_with_a_key_of_another_structure_enters_no_form():
    ids = list("abcdef")
    key = canonical_form(racg(ids, path_edges(ids)))[0]
    CG = graph_from_key(key)
    H = CG.permuted(CG.vertices[1:] + CG.vertices[:1])
    assert positional_key(H.groups, H.edges) != key
    clf = Classifier()
    clf.classify_canonical_jsonable(H, key)
    assert key in clf._cache
    assert (H.groups, H.edges) not in clf._forms and (CG.groups, CG.edges) not in clf._forms


# -- the slender memo ----------------------------------------------------------------


def certificate_in(clf, G):
    """The slender memo's certificate of G, written in G's ids as the
    slender-leaf prover writes it."""
    return to_jsonable(clf._stored_slender(G), _id_map(G.vertices))


@settings(max_examples=150)
@given(G=flavored_graphs(), data=st.data())
def test_the_slender_memo_returns_what_is_slender_returns(G, data):
    """Cold, warm from the same structure under other ids, and warm
    from classifying G, the stored certificate written through
    ``_id_map(G.vertices)`` is ``is_slender(G)``, field by field; a warm
    lookup computes nothing, and the memo names positions "0", "1", ..."""
    expected = to_jsonable(is_slender(G))
    assert certificate_in(Classifier(), G) == expected

    names = data.draw(st.permutations([f"x{i}" for i in range(G.n)]))
    H = G.relabeled(dict(zip(G.vertices, names)))
    clf = Classifier()
    assert certificate_in(clf, H) == to_jsonable(is_slender(H))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coherence_engine, "is_slender", None)
        assert certificate_in(clf, G) == expected

    clf = Classifier()
    clf.classify(G)
    assert certificate_in(clf, G) == expected
    for (groups, _), stored in clf._slender.items():
        names = {str(i) for i in range(len(groups))}
        for part in (stored.factors or ()) + ((stored.obstruction,) if stored.obstruction else ()):
            assert set(part.vertices) <= names


def test_a_census_decides_each_slenderness_premise_once(tmp_path, monkeypatch):
    """One classifier classifies and verifies the coxeter census, and it
    runs ``is_slender`` at most once per structure; its records still
    pass ``check_verdict`` with a fresh classifier each."""
    classifiers, computed = [], []
    original = coherence_engine.is_slender

    def counting(G):
        computed.append((G.groups, G.edges))
        return original(G)

    def recording(*args, **kwargs):
        classifiers.append(Classifier(*args, **kwargs))
        return classifiers[-1]

    monkeypatch.setattr(coherence_engine, "is_slender", counting)
    monkeypatch.setattr(census, "Classifier", recording)
    out = tmp_path / "coxeter.jsonl"
    argv = "census --flavor coxeter --max-vertices 4 --labels 2,3,4 --max-edges 4 --out"
    assert run_main([*argv.split(), str(out)]) == 0
    assert len(classifiers) == 1 and computed
    assert len(computed) == len(set(computed)) == len(classifiers[0]._slender)
    monkeypatch.setattr(coherence_engine, "is_slender", original)
    header, *records = map(json.loads, out.read_text().splitlines())
    assert "header" in header and len(records) == 154
    for rec in records:
        check_verdict(graph_from_key(rec["key"]), verdict_from_jsonable(rec["verdict"]))


# -- verification makes no canonical search on the classifier's own evidence -------


@pytest.fixture
def verify_searches(canonical_calls, monkeypatch):
    """A list that gets one entry per ``canonical_form`` call made inside
    ``check_verdict``, as the CLI and the census call it."""
    inside = []
    original = coherence_engine.check_verdict

    def counting(*args, **kwargs):
        before = len(canonical_calls)
        try:
            return original(*args, **kwargs)
        finally:
            inside.extend(canonical_calls[before:])

    for module in (census, cli):
        monkeypatch.setattr(module, "check_verdict", counting)
    return inside


def bench_operations(monkeypatch, workload: str, seed: int = 1):
    """The benchmark's operations for ``workload``, from ``bench/workloads.py``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module.operations(workload, seed)


def run_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_verifies_the_proof_gallery_with_no_search(
    verify_searches, tmp_path, monkeypatch, fmt
):
    operations = bench_operations(monkeypatch, "classify-proofs")
    assert len(operations) == 10
    for op in operations:
        (tmp_path / f"{op.name}.json").write_text(op.document)
        assert run_main(["classify", "--format", fmt, *op.argv(str(tmp_path))[1:]]) == 0
    assert verify_searches == []


def test_census_verifies_its_records_with_no_search(verify_searches, canonical_calls):
    assert run_main(["census", "--flavor", "racg", "--max-vertices", "6"]) == 0
    assert canonical_calls and verify_searches == []


def test_a_child_listed_in_another_order_verifies_by_a_search(canonical_calls):
    ids = list("abcdef")
    G = racg(ids, path_edges(ids))
    clf = Classifier()
    proof = clf.classify(G).proof
    classified = len(canonical_calls)
    assert verify_proof(G, proof, classifier=clf) and len(canonical_calls) == classified
    child = proof.children[1]
    reordered = dataclasses.replace(child, vertices=child.vertices[::-1])
    tampered = dataclasses.replace(proof, children=(proof.children[0], reordered))
    assert verify_proof(G, tampered, classifier=clf)
    assert canonical_calls[classified:] == [len(child.vertices)]


def test_resumed_records_verify_by_searches(verify_searches, tmp_path):
    """A resumed run's classifier starts cold, as in a new process: it
    classifies no stored class, so their keys are checked by searches."""
    argv = ["census", "--flavor", "racg", "--max-vertices", "5", "--out", str(tmp_path / "c.jsonl")]
    assert run_main(argv) == 0 and verify_searches == []
    assert run_main(argv) == 0 and verify_searches
