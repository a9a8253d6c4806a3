"""Tests of the benchmark itself: its input builders, its tracer and its
metric list.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import random

import pytest

import run  # puts src/ and bench/ on sys.path
import workloads
from graphcoherence import cli
from graphcoherence.labeled_graph import parse_graph
from tracer import TARGETS, Tracer


@pytest.fixture
def nx():
    return pytest.importorskip("networkx")


def to_nx(nx, n, edges):
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from((i, j, {"label": m}) for i, j, m in edges)
    return G


@pytest.mark.parametrize(
    "name, reference",
    [
        ("cocktail-party-4", lambda nx: nx.complete_multipartite_graph(2, 2, 2, 2)),
        ("cycle-12", lambda nx: nx.cycle_graph(12)),
        ("grid-3x4", lambda nx: nx.grid_2d_graph(3, 4)),
        ("wheel-12", lambda nx: nx.wheel_graph(12)),
        ("c6-plus-c6", lambda nx: nx.disjoint_union(nx.cycle_graph(6), nx.cycle_graph(6))),
        (
            "k33-plus-c6",
            lambda nx: nx.disjoint_union(nx.complete_bipartite_graph(3, 3), nx.cycle_graph(6)),
        ),
        ("coxeter-cycle-12-3", lambda nx: nx.cycle_graph(12)),
        ("coxeter-cycle-12-45", lambda nx: nx.cycle_graph(12)),
        ("artin-path-12-3", lambda nx: nx.path_graph(12)),
        ("artin-cycle-12-3", lambda nx: nx.cycle_graph(12)),
    ],
)
def test_gallery_builders_match_networkx(nx, name, reference):
    gallery = {g[0]: g[1:] for g in workloads.proof_gallery()}
    _, n, edges = gallery[name]
    assert nx.is_isomorphic(to_nx(nx, n, edges), reference(nx))


def test_alternating_labels_go_round_the_cycle():
    labels = [m for _, _, m in workloads.cycle(12, (4, 5))]
    assert labels == [4, 5] * 6


@pytest.mark.parametrize("seed", range(5))
def test_random_regular_graphs_are_simple_and_four_regular(nx, seed):
    edges = workloads.random_regular(10, 4, random.Random(seed))
    G = to_nx(nx, 10, edges)
    assert G.number_of_edges() == len(edges) == 20
    assert nx.is_regular(G) and all(d == 4 for _, d in G.degree())
    assert nx.number_of_selfloops(G) == 0


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOAD_NAMES:
        assert workloads.operations(workload, 7) == workloads.operations(workload, 7)
    assert workloads.operations("classify-proofs", 7) != workloads.operations("classify-proofs", 8)
    assert workloads.operations("classify-search", 7) != workloads.operations("classify-search", 8)


def test_shuffled_documents_are_the_same_labeled_graphs(nx):
    ops = {op.name: op for op in workloads.operations("classify-proofs", 3)}

    def same_label(a, b):
        return a["label"] == b["label"]

    for name, _, n, edges in workloads.proof_gallery():
        G = parse_graph(ops[name].document)
        assert nx.is_isomorphic(to_nx(nx, G.n, G.edges), to_nx(nx, n, edges), edge_match=same_label), name


# -- tracer --------------------------------------------------------------------

SMALL_INPUTS = [
    workloads.Operation("census-racg-4", ("census", "--flavor", "racg", "--max-vertices", "4")),
    workloads.operations("classify-search", workloads.DEFAULT_SEED)[0],
]


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("inputs"))
    for op in SMALL_INPUTS:
        if op.document is not None:
            with open(os.path.join(directory, f"{op.name}.json"), "w", encoding="utf-8") as fh:
                fh.write(op.document)
    return directory


def _code(target):
    module = __import__(f"graphcoherence.{target.module}", fromlist=["_"])
    obj = module
    for part in target.qualname.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return getattr(obj, "__func__", obj).__code__


@pytest.mark.parametrize("op", SMALL_INPUTS, ids=lambda op: op.name)
def test_traced_calls_match_cprofile(op, small_inputs):
    profile = cProfile.Profile()
    profile.enable()
    plain = run.call(cli, op, small_inputs)
    profile.disable()
    stats = pstats.Stats(profile).stats
    tracer = Tracer()
    traced = run.call(cli, op, small_inputs, tracer=tracer)
    assert plain.status == traced.status == 0
    assert tracer.calls["cli.main"] == 1
    for target in TARGETS:
        code = _code(target)
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        counted = tracer.resumes[target.name] if target.item else tracer.calls[target.name]
        assert counted == profiled, target.name


@pytest.mark.parametrize("op", SMALL_INPUTS, ids=lambda op: op.name)
def test_tracing_keeps_stdout_and_restores_functions(op, small_inputs):
    import graphcoherence.coherence_engine as engine

    before = engine.canonical_form
    plain = run.call(cli, op, small_inputs)
    tracer = Tracer()
    traced = run.call(cli, op, small_inputs, tracer=tracer)
    assert traced.stdout == plain.stdout
    assert engine.canonical_form is before
    table = tracer.table()
    assert table["cli.main"]["calls"] == 1
    assert all(row["self_s"] >= 0 and row["incl_s"] >= row["self_s"] - 1e-9 for row in table.values())
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(table["cli.main"]["incl_s"], rel=1e-6)


def test_generator_spans_exclude_the_consumer():
    tracer = Tracer(targets=())

    def slow_consumer():
        for _ in tracer._iterate("gen", iter(range(3))):
            sum(range(20000))

    slow_consumer()
    spans = [s for s in tracer.spans if s[3] == "gen"]
    assert len(spans) == 4 and tracer.items["gen"] == 3
    assert tracer.resumes["gen"] == 4


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
