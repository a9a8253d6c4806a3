"""Census sweeps: labeled enumeration, class generation, counting,
dedup, resume, verification."""

from __future__ import annotations

import dataclasses
import fcntl
import itertools
import json
import math
import os
import random
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from graphcoherence import (
    CensusConfig,
    EngineConfig,
    InternalInvariantError,
    LabeledGraph,
    Z,
    Z2,
    canonical_key,
    coxeter_graph,
    racg,
    run_census,
)
from graphcoherence import census, labeled_graph
from graphcoherence.census import (
    _classes,
    _least_member,
    _next_level,
    enumerate_graphs,
    graph_from_key,
    records_header,
)
from graphcoherence.cli import main
from graphcoherence.coherence_engine import COHERENT, INCOHERENT, STEP_NAMES, UNKNOWN
from helpers import (
    brute_force_automorphism_count,
    brute_force_is_chordal,
    dedupe_next_level,
    prism_racg,
)


class TestConfig:
    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            CensusConfig(flavor="artin")

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            CensusConfig(min_vertices=3, max_vertices=2)
        with pytest.raises(ValueError):
            CensusConfig(min_vertices=0)

    def test_labels_need_coxeter(self):
        with pytest.raises(ValueError):
            CensusConfig(flavor="racg", edge_labels=(2, 3))
        CensusConfig(flavor="coxeter", edge_labels=(2, 3))

    def test_label_lower_bound(self):
        with pytest.raises(ValueError):
            CensusConfig(flavor="coxeter", edge_labels=(1, 2))

    def test_repeated_label_rejected(self):
        # would enumerate every labeled graph with an edge twice
        with pytest.raises(ValueError, match="distinct"):
            CensusConfig(flavor="coxeter", edge_labels=(3, 3))

    def test_negative_max_edges_rejected(self):
        with pytest.raises(ValueError, match="max_edges"):
            CensusConfig(max_edges=-1)
        CensusConfig(max_edges=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_census(CensusConfig(max_vertices=2), workers=workers)


class TestEnumeration:
    def test_counts_by_size(self):
        config = CensusConfig(flavor="racg", max_vertices=3)
        graphs = list(enumerate_graphs(config))
        # 1 + 2 + 8 labeled graphs on 1..3 vertices
        assert len(graphs) == 11
        assert [g.n for g in graphs] == [1] * 1 + [2] * 2 + [3] * 8

    def test_max_edges_cut(self):
        config = CensusConfig(flavor="racg", max_vertices=3, max_edges=1)
        graphs = list(enumerate_graphs(config))
        assert all(g.m <= 1 for g in graphs)
        assert len(graphs) == 1 + 2 + 4

    def test_label_product_for_coxeter(self):
        config = CensusConfig(
            flavor="coxeter", min_vertices=2, max_vertices=2, edge_labels=(2, 3)
        )
        graphs = list(enumerate_graphs(config))
        # empty graph, label-2 edge, label-3 edge
        assert len(graphs) == 3
        labels = sorted(list(g.edge_list())[0][2] for g in graphs if g.m)
        assert labels == [2, 3]

    def test_deterministic(self):
        config = CensusConfig(flavor="raag", max_vertices=4)
        a = [canonical_key(g) for g in enumerate_graphs(config)]
        b = [canonical_key(g) for g in enumerate_graphs(config)]
        assert a == b

    def test_vertex_groups_match_flavor(self):
        config = CensusConfig(flavor="raag", max_vertices=2)
        assert all(
            g.group(v).is_infinite_cyclic
            for g in enumerate_graphs(config)
            for v in g.vertices
        )
        config = CensusConfig(flavor="racg", max_vertices=2)
        assert all(
            g.group(v).is_order_two
            for g in enumerate_graphs(config)
            for v in g.vertices
        )


class TestGraphFromKey:
    def test_round_trip_small_graphs(self):
        config = CensusConfig(flavor="racg", max_vertices=4)
        for G in enumerate_graphs(config):
            key = canonical_key(G)
            H = graph_from_key(key)
            assert canonical_key(H) == key
            assert H.vertices == tuple(str(i) for i in range(G.n))

    def test_round_trip_labeled(self):
        key = canonical_key(prism_racg())
        assert canonical_key(graph_from_key(key)) == key

    def test_garbage_key_rejected(self):
        with pytest.raises(ValueError):
            graph_from_key("not a key")


def first_appearances(config: CensusConfig) -> tuple[dict, Counter]:
    """Brute force over the labeled enumeration: each class's first
    graph, as its key -> (edge mask, label ranks in pair order), in
    order of first appearance, and each class's count of labeled graphs."""
    rank = {m: r for r, m in enumerate(config.edge_labels)}
    first: dict = {}
    counts: Counter = Counter()
    for G in enumerate_graphs(config):
        key = canonical_key(G)
        counts[key] += 1
        if key not in first:
            index = {pair: k for k, pair in enumerate(itertools.combinations(range(G.n), 2))}
            mask = sum(1 << index[i, j] for i, j, _ in G.edges)
            first[key] = (mask, tuple(rank[m] for _, _, m in G.edges))
    return first, counts


def brute_force_least_member(G, rank: dict) -> tuple:
    """The least (edge mask, label ranks) over all vertex orders of G."""
    pairs = list(itertools.combinations(range(G.n), 2))
    best = None
    for order in itertools.permutations(range(G.n)):
        pos = {v: p for p, v in enumerate(order)}
        labels = {tuple(sorted((pos[i], pos[j]))): m for i, j, m in G.edges}
        mask = sum(1 << k for k, pair in enumerate(pairs) if pair in labels)
        member = (mask, tuple(rank[labels[pair]] for pair in pairs if pair in labels))
        best = member if best is None else min(best, member)
    return best


@st.composite
def census_graphs(draw):
    """All-Z2 graphs on up to 6 vertices with edge labels from a drawn
    label list, in user order, and that list's ranks."""
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.sampled_from((2, 3, 4, 5)), min_size=1, max_size=3, unique=True))
    density = draw(st.sampled_from((0.0, 0.3, 0.5, 0.8, 1.0)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    ids = [str(v) for v in range(n)]
    edges = [
        (u, v, rng.choice(labels))
        for u, v in itertools.combinations(ids, 2)
        if rng.random() < density
    ]
    return coxeter_graph(ids, edges), {m: r for r, m in enumerate(labels)}


def assert_generates_the_automorphism_group(G, size: int, generators) -> None:
    """``generators`` are automorphisms of ``G`` and generate a group of
    ``size`` elements, the brute-force count of G's automorphisms."""
    assert size == brute_force_automorphism_count(G)
    edges = {(i, j): m for i, j, m in G.edges}
    for g in generators:
        assert {tuple(sorted((g[i], g[j]))): m for (i, j), m in edges.items()} == edges
    group = {tuple(range(G.n))}
    frontier = list(group)
    for p in frontier:
        for g in generators:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    assert len(group) == size


class TestClassGeneration:
    @settings(max_examples=100)
    @given(census_graphs())
    def test_least_member_matches_brute_force(self, case):
        G, rank = case
        assert _least_member(G, rank) == brute_force_least_member(G, rank)

    @pytest.mark.parametrize(
        "config",
        [
            CensusConfig(flavor="racg", max_vertices=7),
            CensusConfig(flavor="raag", max_vertices=6),
            CensusConfig(flavor="coxeter", max_vertices=4, edge_labels=(2, 3, 4, 5)),
            CensusConfig(flavor="coxeter", max_vertices=4, edge_labels=(5, 3)),
            CensusConfig(flavor="coxeter", max_vertices=5, max_edges=4, edge_labels=(2, 3, 4)),
        ],
        ids=["racg-7", "raag-6", "coxeter-4-2345", "coxeter-4-53", "coxeter-5-e4-234"],
    )
    def test_generation_matches_the_dedupe_oracle(self, config):
        """Level by level, canonical augmentation accepts each class of
        the dedupe oracle once, with its key, its canonical
        representative and, up to 6 vertices (brute force), generators
        of its automorphism group."""
        single = LabeledGraph(("0",), (Z if config.flavor == "raag" else Z2,), ())
        level = [(canonical_key(single), single, (1, []))]
        oracle = {canonical_key(single): single}
        for n in range(2, config.max_vertices + 1):
            level = _next_level(((CG, gens) for _, CG, (_, gens) in level), config, 12)
            oracle = dedupe_next_level(oracle.values(), config.edge_labels, config.max_edges)
            assert len(level) == len(oracle)
            assert {key: CG for key, CG, _ in level} == oracle
            if n <= 6:
                for _, CG, (size, generators) in level:
                    assert_generates_the_automorphism_group(CG, size, generators)

    def test_one_search_per_child_that_passes_both_filters(self, monkeypatch):
        """Generation canonicalizes no child: it searches only the children
        whose new vertex has the largest initial and refined colours, once
        each.  At 7 vertices two of those fail the orbit test."""
        def refused(*args, **kwargs):
            raise AssertionError("canonical_form called during generation")

        for module in (labeled_graph, census):
            monkeypatch.setattr(module, "canonical_form", refused, raising=False)
        searches = Counter()
        search = census._canonical_search

        def counting(rows, *args, group=False, **kwargs):
            searches[len(rows), group] += 1
            return search(rows, *args, group=group, **kwargs)

        monkeypatch.setattr(census, "_canonical_search", counting)
        classes = Counter(n for n, *_ in _classes(CensusConfig(flavor="racg", max_vertices=7), 12))
        assert [searches[n, True] for n in range(2, 8)] == [2, 4, 11, 34, 156, 1046]
        assert [classes[n] for n in range(2, 8)] == [2, 4, 11, 34, 156, 1044]

    def test_a_class_generated_twice_is_an_internal_error(self, monkeypatch, capsys):
        """The generator checks that it is isomorph-free: one parent
        given twice grows each of its classes twice, and the second time
        is an internal error, exit 2 through the command line."""
        config = CensusConfig(flavor="racg", max_vertices=3)
        single = LabeledGraph(("0",), (Z2,), ())
        with pytest.raises(InternalInvariantError, match="generated twice"):
            _next_level([(single, []), (single, [])], config, 12)
        next_level = census._next_level
        monkeypatch.setattr(
            census,
            "_next_level",
            lambda parents, config, cap: next_level([*parents] * 2, config, cap),
        )
        assert main(["census", "--flavor", "racg", "--max-vertices", "3"]) == 2
        captured = capsys.readouterr()
        assert "internal error: census class" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config",
        [
            CensusConfig(flavor="racg", max_vertices=6),
            CensusConfig(flavor="raag", max_vertices=5),
            CensusConfig(flavor="coxeter", max_vertices=4, edge_labels=(2, 3, 4, 5)),
            CensusConfig(flavor="coxeter", max_vertices=4, edge_labels=(5, 3)),
            CensusConfig(
                flavor="coxeter", min_vertices=3, max_vertices=4, max_edges=4, edge_labels=(2, 3, 4)
            ),
        ],
        ids=["racg-6", "raag-5", "coxeter-4-2345", "coxeter-4-53", "coxeter-3to4-e4-234"],
    )
    def test_classes_follow_the_labeled_enumeration(self, config):
        """Classes come in order of first appearance among the labeled
        graphs, each with its first graph as least member and its count
        of labeled graphs as weight.  Each representative is also the
        graph its key rebuilds, so the census, which checks new and
        resumed verdicts alike on the representative, checks a resumed
        record on the graph its key names."""
        first, counts = first_appearances(config)
        rank = {m: r for r, m in enumerate(config.edge_labels)}
        classes = list(_classes(config, 12))
        assert [key for _, _, key, _, _ in classes] == list(first)
        for n, e, key, CG, weight in classes:
            assert CG == graph_from_key(key) and (n, e) == (CG.n, CG.m)
            assert _least_member(CG, rank) == first[key]
            assert weight == counts[key]


@pytest.fixture(scope="module")
def racg_classes_to_7():
    return list(_classes(CensusConfig(flavor="racg", max_vertices=7), 12))


def test_class_counts_match_oeis_a000088(racg_classes_to_7):
    """Graphs on n unlabeled vertices, n = 1..7, and 2^(n choose 2)
    labeled graphs on n vertices."""
    per_n = Counter(n for n, *_ in racg_classes_to_7)
    assert [per_n[n] for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    weights = Counter()
    for n, _, _, _, weight in racg_classes_to_7:
        weights[n] += weight
    assert [weights[n] for n in range(1, 8)] == [2 ** math.comb(n, 2) for n in range(1, 8)]


def test_classes_are_the_networkx_atlas_graphs(racg_classes_to_7):
    nx = pytest.importorskip("networkx")
    atlas = Counter()
    for H in nx.graph_atlas_g()[1:]:
        ids = [str(v) for v in H.nodes]
        atlas[canonical_key(racg(ids, [(str(u), str(v)) for u, v in H.edges]))] += 1
    assert all(count == 1 for count in atlas.values())
    assert set(atlas) == {key for _, _, key, _, _ in racg_classes_to_7}


class TestSmallCensus:
    def test_racg_up_to_four_all_coherent(self):
        report = run_census(CensusConfig(flavor="racg", max_vertices=4))
        assert report.total == 1 + 2 + 8 + 64
        assert report.class_count == 1 + 2 + 4 + 11
        assert report.incoherent == () and report.unknown == ()
        assert report.smallest_incoherent() is None
        for (n, e), counts in report.cells.items():
            assert set(counts) == {COHERENT}
            assert sum(counts.values()) == math.comb(math.comb(n, 2), e)

    def test_dedup_counts_classes_once(self):
        report = run_census(CensusConfig(flavor="racg", max_vertices=4, dedup=True))
        assert report.total == report.class_count == 18
        # path, star, triangle plus a point
        assert report.cells[(4, 3)][COHERENT] == 3

    def test_raag_four_vertices_incoherent_cycle_class(self):
        report = run_census(CensusConfig(flavor="raag", max_vertices=4))
        assert report.smallest_incoherent() == (4, 4)
        # the square is the one bad class; it has three labelings
        assert report.cells[(4, 4)][INCOHERENT] == 3
        assert len(report.incoherent) == 1
        n, e, key = report.incoherent[0]
        assert (n, e) == (4, 4)
        H = graph_from_key(key)
        assert H.n == 4 and H.m == 4
        assert not brute_force_is_chordal(H)

    def test_report_jsonable_round_trips_through_json(self):
        report = run_census(CensusConfig(flavor="racg", max_vertices=3))
        doc = json.loads(json.dumps(report.to_jsonable()))
        assert doc["total"] == 11
        assert doc["smallest_incoherent"] is None
        assert doc["cells"][0] == {"n": 1, "e": 0, "counts": {COHERENT: 1}}

    def test_table_renders_every_cell(self):
        report = run_census(CensusConfig(flavor="racg", max_vertices=3))
        text = report.table()
        assert len(text.splitlines()) == 1 + len(report.cells)


class TestRecordsAndResume:
    def test_records_written_and_resumed(self, tmp_path):
        out = tmp_path / "census.jsonl"
        config = CensusConfig(flavor="racg", max_vertices=4)
        first = run_census(config, out_path=str(out))
        lines = out.read_text().strip().splitlines()
        assert json.loads(lines[0]) == records_header(EngineConfig())
        assert len(lines) == 1 + first.class_count
        rec = json.loads(lines[1])
        assert set(rec) >= {"key", "n", "e", "status", "rule", "verdict"}

        second = run_census(config, out_path=str(out))
        assert out.read_text().strip().splitlines() == lines  # nothing re-written
        assert second.to_jsonable() == first.to_jsonable()

    def test_resume_extends_to_larger_sweep(self, tmp_path):
        out = tmp_path / "census.jsonl"
        run_census(CensusConfig(flavor="racg", max_vertices=3), out_path=str(out))
        small_lines = len(out.read_text().strip().splitlines())
        report = run_census(
            CensusConfig(flavor="racg", max_vertices=4), out_path=str(out)
        )
        lines = out.read_text().strip().splitlines()
        assert len(lines) - 1 == report.class_count > small_lines - 1

    def test_corrupt_record_rejected(self, tmp_path):
        out = tmp_path / "census.jsonl"
        out.write_text('{"key": "3;\n')
        with pytest.raises(ValueError, match="record"):
            run_census(CensusConfig(flavor="racg", max_vertices=3), out_path=str(out))

    def test_non_object_first_line_rejected(self, tmp_path):
        out = tmp_path / "census.jsonl"
        out.write_text("[1]\n")
        with pytest.raises(ValueError, match="corrupt census record"):
            run_census(CensusConfig(flavor="racg", max_vertices=3), out_path=str(out))

    @pytest.mark.parametrize(
        "workers, check",
        [(w, c) for c in ("verify", "config-off", "cli-off") for w in (1, 2)],
        ids=[
            f"{run}{suffix}"
            for suffix in ("", "-verify-false", "-no-verify-flag")
            for run in ("serial", "pool")
        ],
    )
    def test_tampered_record_caught_by_verification(self, tmp_path, capsys, workers, check):
        """A resumed record is re-verified where a new one would be: in
        this process, or in a pool worker.  With verification off
        (``verify=False``, or ``--no-verify``) it is tallied as stored."""
        out = tmp_path / "census.jsonl"
        config = CensusConfig(flavor="racg", max_vertices=4)
        clean = run_census(config, out_path=str(out)).to_jsonable()
        header, *records = [json.loads(line) for line in out.read_text().splitlines()]
        # graft the edge-free verdict onto the complete-graph class
        donor = next(r for r in records if (r["n"], r["e"]) == (4, 0))
        victim = next(r for r in records if (r["n"], r["e"]) == (4, 6))
        victim["verdict"] = donor["verdict"]
        victim["status"] = donor["status"]
        tampered = "".join(json.dumps(r) + "\n" for r in [header, *records])
        out.write_text(tampered)
        if check == "verify":
            with pytest.raises(InternalInvariantError, match=f"for {re.escape(victim['key'])}"):
                run_census(config, out_path=str(out), workers=workers)
            return
        if check == "config-off":
            off = CensusConfig(flavor="racg", max_vertices=4, verify=False)
            report = run_census(off, out_path=str(out), workers=workers).to_jsonable()
        else:
            argv = ["census", "--flavor", "racg", "--max-vertices", "4", "--format", "json"]
            argv += ["--out", str(out), "--workers", str(workers), "--no-verify"]
            capsys.readouterr()
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
        # The stored statuses are tallied, and nothing is rewritten.
        assert report == clean
        assert out.read_text() == tampered

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_resumed_unknown_record_classified_again(self, tmp_path, capsys, workers):
        """An UNKNOWN verdict carries no evidence, so a resumed UNKNOWN
        record is checked by classifying its class again, where a new
        one would be classified.  A COHERENT record rewritten as UNKNOWN
        is refused with one error line and exit 1, and the file is kept
        as it is; with ``--no-verify`` it is tallied as stored."""
        out = tmp_path / "census.jsonl"
        config = CensusConfig(flavor="racg", max_vertices=4)
        clean = run_census(config, out_path=str(out)).to_jsonable()
        header, *records = [json.loads(line) for line in out.read_text().splitlines()]
        victim = next(r for r in records if (r["n"], r["e"]) == (4, 0))
        assert victim["status"] == COHERENT
        note = {"code": "no-rule-applied", "vertices": [], "detail": "no rule"}
        victim.update(
            status=UNKNOWN,
            rule=None,
            notes=[note["code"]],
            verdict={"status": UNKNOWN, "proof": None, "witness": None, "notes": [note]},
        )
        tampered = "".join(json.dumps(r) + "\n" for r in [header, *records])
        out.write_text(tampered)
        argv = ["census", "--flavor", "racg", "--max-vertices", "4", "--format", "json"]
        argv += ["--out", str(out), "--workers", str(workers)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and captured.err.startswith("error: ")
        assert f"corrupt census record for class {victim['key']}" in captured.err
        assert out.read_text() == tampered
        assert main(argv + ["--no-verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unknown"] == clean["unknown"] + [
            {"n": 4, "e": 0, "key": victim["key"], "codes": ["no-rule-applied"]}
        ]
        assert out.read_text() == tampered

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_a_key_on_two_lines_is_a_corrupt_record(self, tmp_path, capsys, workers):
        """Each class is counted and verified from one record.  A forged
        INCOHERENT copy of a record, put before the genuine line, would
        otherwise be replaced by it unchecked; the file is refused at the
        later line, with one error line and exit 1, and kept as it is."""
        out = tmp_path / "census.jsonl"
        argv = ["census", "--flavor", "racg", "--max-vertices", "3"]
        argv += ["--out", str(out), "--workers", str(workers)]
        assert main(argv) == 0
        capsys.readouterr()
        header, *lines = out.read_text().splitlines(keepends=True)
        at, genuine = next(
            (i, rec)
            for i, rec in enumerate(map(json.loads, lines))
            if (rec["n"], rec["e"]) == (3, 0)
        )
        witness = {"kind": "droms_cycle", "cycle": ["0", "1", "2", "0"]}
        forged = dict(genuine, status=INCOHERENT, rule=None, notes=[])
        forged["verdict"] = {"status": INCOHERENT, "proof": None, "witness": witness, "notes": []}
        tampered = "".join([header, *lines[:at], json.dumps(forged) + "\n", *lines[at:]])
        out.write_text(tampered)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # The header is line 1 and the forged copy line at + 2.
        where = f"{out}:{at + 3}"
        message = "ValueError: an earlier line has the same key"
        assert captured.err == f"error: corrupt census record at {where}: {message}\n"
        assert out.read_text() == tampered

    @pytest.mark.parametrize(
        "writer",
        [
            EngineConfig(disabled_rules=frozenset(STEP_NAMES)),
            EngineConfig(disabled_rules=frozenset({"witness_scan"})),
            EngineConfig(max_search_vertices=8),
        ],
        ids=["all-steps-off", "one-step-off", "other-cap"],
    )
    def test_resume_under_another_engine_refused(self, tmp_path, writer):
        out = tmp_path / "census.jsonl"
        config = CensusConfig(flavor="racg", max_vertices=4)
        run_census(config, out_path=str(out), engine_config=writer)
        written = out.read_bytes()
        with pytest.raises(ValueError, match="written by .*use another --out file"):
            run_census(config, out_path=str(out))
        assert out.read_bytes() == written

    def test_resume_under_another_version_refused(self, tmp_path):
        out = tmp_path / "census.jsonl"
        config = CensusConfig(flavor="racg", max_vertices=3)
        run_census(config, out_path=str(out))
        header, rest = out.read_text().split("\n", 1)
        for field, value in (("version", "0.0.1"), ("key_format", 0)):
            changed = dict(json.loads(header), **{field: value})
            out.write_text(json.dumps(changed) + "\n" + rest)
            with pytest.raises(ValueError, match="written by"):
                run_census(config, out_path=str(out))

    def test_workers_match_serial(self):
        config = CensusConfig(flavor="racg", max_vertices=4)
        serial = run_census(config)
        parallel = run_census(config, workers=2)
        assert parallel.to_jsonable() == serial.to_jsonable()

    @pytest.mark.parametrize(
        "cpus, workers, pool_size",
        [(2, 64, 2), (4, 3, 3), (1, 8, None), (None, 8, None)],
        ids=["above-2-cpus", "below-4-cpus", "1-cpu", "cpu-count-unknown"],
    )
    def test_pool_is_clamped_to_the_cpu_count(self, monkeypatch, cpus, workers, pool_size):
        """A pool gets at most ``os.cpu_count()`` processes (1 when the
        count is unknown, which runs serially); a fake pool records its
        size and maps in this process."""
        import multiprocessing

        sizes = []

        class InProcessPool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, jobs, chunksize=1):
                return map(func, jobs)

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(census, "_worker_job", None)
        config = CensusConfig(flavor="racg", max_vertices=4)
        report = run_census(config, workers=workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert report.to_jsonable() == run_census(config).to_jsonable()

    def test_workers_with_records(self, tmp_path):
        out = tmp_path / "par.jsonl"
        config = CensusConfig(flavor="raag", max_vertices=4)
        parallel = run_census(config, out_path=str(out), workers=2)
        serial = run_census(config)
        assert parallel.to_jsonable() == serial.to_jsonable()
        assert len(out.read_text().strip().splitlines()) == 1 + parallel.class_count

    @pytest.mark.parametrize(
        "config",
        [
            CensusConfig(flavor="racg", max_vertices=5),
            CensusConfig(flavor="coxeter", max_vertices=3, edge_labels=(2, 3, 4)),
        ],
        ids=["racg-5", "coxeter-3"],
    )
    def test_workers_write_the_serial_record_file(self, tmp_path, config):
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        run_census(config, out_path=str(serial))
        run_census(config, out_path=str(parallel), workers=2)
        assert parallel.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize(
        "config",
        [
            CensusConfig(flavor="raag", max_vertices=4),
            CensusConfig(flavor="coxeter", max_vertices=3, edge_labels=(2, 3, 4, 5)),
        ],
        ids=["raag-4-incoherent", "coxeter-3-unknown"],
    )
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_forged_summary_refused(self, tmp_path, config, workers):
        """A resumed record must be the one its class and its verdict
        give, or it is refused and the file kept as it is.  With
        verification off the stored verdict is tallied, not the
        summary."""
        out = tmp_path / "census.jsonl"
        fresh = run_census(config, out_path=str(out))
        assert fresh.incoherent or fresh.unknown
        header, *records = [json.loads(line) for line in out.read_text().splitlines()]
        for rec in records:
            rec.update(n=rec["n"] + 1, e=rec["e"] + 2, notes=["edited"], rule="edited")
        out.write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
        edited = out.read_bytes()
        with pytest.raises(ValueError, match="corrupt census record for class .*: its summary"):
            run_census(config, out_path=str(out), workers=workers)
        assert out.read_bytes() == edited
        off = dataclasses.replace(config, verify=False)
        resumed = run_census(off, out_path=str(out), workers=workers)
        assert json.dumps(resumed.to_jsonable()) == json.dumps(fresh.to_jsonable())
        assert out.read_bytes() == edited

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda rec: rec.update(
                    verdict={
                        "status": "UNKNOWN",
                        "proof": None,
                        "witness": None,
                        "notes": [{"code": "x", "vertices": [], "detail": ""}],
                    }
                ),
                "status 'COHERENT' is not its verdict's 'UNKNOWN'",
            ),
            (lambda rec: rec.pop("status"), "KeyError: 'status'"),
            (lambda rec: rec.pop("key"), "KeyError: 'key'"),
            (lambda rec: rec.pop("verdict"), "KeyError: 'verdict'"),
            (lambda rec: rec.update(key=7), "key is not a string"),
            (lambda rec: rec["verdict"].pop("proof"), "KeyError: 'proof'"),
            (
                lambda rec: [rec["verdict"].pop(name) for name in ("witness", "notes")],
                "KeyError: 'witness'",
            ),
        ],
        ids=[
            "unverified-status", "no-status", "no-key", "no-verdict", "int-key", "no-proof",
            "no-witness-or-notes",
        ],
    )
    def test_record_that_its_verdict_does_not_back_rejected(self, tmp_path, edit, message):
        out = tmp_path / "census.jsonl"
        config = CensusConfig(flavor="racg", max_vertices=2)
        run_census(config, out_path=str(out))
        lines = out.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        edit(rec)
        lines[2] = json.dumps(rec) + "\n"
        out.write_text("".join(lines))
        written = out.read_bytes()
        with pytest.raises(ValueError, match=f"corrupt census record at .*:3: .*{message}"):
            run_census(config, out_path=str(out))
        assert out.read_bytes() == written

    def test_record_file_held_by_another_census_refused(self, tmp_path):
        out = tmp_path / "census.jsonl"
        config = CensusConfig(flavor="racg", max_vertices=3)
        run_census(config, out_path=str(out))
        whole = out.read_bytes()
        # A cut-off last record: a run that read the file would cut it.
        out.write_bytes(whole[:-20])
        with open(out, "ab") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            with pytest.raises(ValueError, match="is in use by another census"):
                run_census(config, out_path=str(out))
            assert out.read_bytes() == whole[:-20]
        # Released, the same file resumes.
        run_census(config, out_path=str(out))
        assert out.read_bytes() == whole


_CUT_CONFIG = CensusConfig(flavor="racg", max_vertices=4)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The JSON report and record file of an uninterrupted census."""
    out = tmp_path_factory.mktemp("uninterrupted") / "census.jsonl"
    report = run_census(_CUT_CONFIG, out_path=str(out))
    return json.dumps(report.to_jsonable(), indent=2), out.read_bytes()


@settings(max_examples=16)
@given(data=st.data(), workers=st.sampled_from([1, 2]))
def test_resume_after_a_cut_at_any_byte(uninterrupted, data, workers):
    report_json, whole = uninterrupted
    header_end = whole.index(b"\n") + 1
    cut = data.draw(st.one_of(st.integers(0, header_end), st.integers(0, len(whole))))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "census.jsonl")
        with open(out, "wb") as fh:
            fh.write(whole[:cut])
        report = run_census(_CUT_CONFIG, out_path=out, workers=workers)
        assert json.dumps(report.to_jsonable(), indent=2) == report_json
        with open(out, "rb") as fh:
            assert fh.read() == whole


class TestCapInteraction:
    def test_census_beyond_engine_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            run_census(
                CensusConfig(flavor="racg", max_vertices=13),
                engine_config=EngineConfig(max_search_vertices=12),
            )
