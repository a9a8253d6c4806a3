"""End-to-end command line tests driven through main(argv)."""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphcoherence import (
    CensusConfig,
    EngineConfig,
    emit_presentation,
    graph_product_graph,
    group_model,
    run_census,
)
from graphcoherence.cli import main
from graphcoherence.coherence_engine import STEP_NAMES
from graphcoherence.labeled_graph import (
    AbelianGroupLabel,
    LabeledGraph,
    Z2,
    cyclic,
    detect_flavor,
    graph_to_jsonable,
)
from helpers import (
    complete_bipartite_racg,
    cycle_racg,
    diamond_racg,
    path_racg,
    prism_racg,
    symmetric_coxeter_k4,
)

Z = AbelianGroupLabel(rank=1, torsion=())
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def graph_file(tmp_path, G, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_jsonable(G)))
    return str(path)


def braid_pair():
    return LabeledGraph.build([("a", Z), ("b", Z)], [("a", "b", 3)])


def product_pair():
    z3 = AbelianGroupLabel(rank=0, torsion=(3,))
    z4 = AbelianGroupLabel(rank=0, torsion=(4,))
    return LabeledGraph.build([("a", z3), ("b", z4)], [("a", "b", 2)])


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> dict[str, str]:
    """The README's example input files: the DOT file shown by
    ``$ cat square.dot`` and the first JSON block."""
    text = README.read_text()
    dot = re.search(r"\$ cat square\.dot\n(graph \{.*?\n\})\n", text, re.S)
    doc = re.search(r"```json\n(.*?)```", text, re.S)
    return {"square.dot": dot.group(1) + "\n", "example.json": doc.group(1)}


class TestClassify:
    @pytest.mark.parametrize("name", ["square.dot", "example.json"])
    def test_readme_examples(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_text(readme_examples()[name])
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().out.startswith("verdict: COHERENT\n")

    def test_json_group_short_forms(self, tmp_path, capsys):
        doc = {
            "vertices": [
                {"id": "a", "group": "Z"},
                {"id": "b", "group": "Z^2"},
                {"id": "c", "group": "Z_3"},
                {"id": "d", "group": "Z4"},
                {"id": "e", "group": {"rank": 1, "torsion": [2]}},
            ],
            "edges": [{"u": "a", "v": "b"}, {"u": "c", "v": "d"}, {"u": "d", "v": "e"}],
        }
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc))
        for vertex, group in zip(doc["vertices"], ([1, []], [2, []], [0, [3]], [0, [4]])):
            vertex["group"] = {"rank": group[0], "torsion": group[1]}
        objects = tmp_path / "objects.json"
        objects.write_text(json.dumps(doc))
        assert main(["classify", "--format", "json", str(short)]) == 0
        out = capsys.readouterr().out
        assert main(["classify", "--format", "json", str(objects)]) == 0
        assert capsys.readouterr().out == out

    def test_text_coherent(self, tmp_path, capsys):
        assert main(["classify", graph_file(tmp_path, cycle_racg(4))]) == 0
        out = capsys.readouterr().out
        assert "verdict: COHERENT" in out
        assert "slender: yes" in out
        assert "proof:" in out

    def test_json_incoherent(self, tmp_path, capsys):
        path = graph_file(tmp_path, complete_bipartite_racg())
        assert main(["classify", "--format", "json", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"]["status"] == "INCOHERENT"
        assert doc["verdict"]["witness"]["kind"] == "join_embedding"
        assert doc["shape"] == "other"
        assert doc["flavor"] == ["graph_product", "coxeter"]

    def test_unknown_still_exits_zero(self, tmp_path, capsys):
        assert main(["classify", graph_file(tmp_path, prism_racg())]) == 0
        out = capsys.readouterr().out
        assert "verdict: UNKNOWN" in out
        assert "note: search-exhausted" in out

    def test_stdout_byte_identical_across_runs(self, tmp_path, capsys):
        path = graph_file(tmp_path, complete_bipartite_racg())
        main(["classify", "--format", "json", path])
        first = capsys.readouterr().out
        main(["classify", "--format", "json", path])
        assert capsys.readouterr().out == first

    def test_disable_rule_changes_route(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_racg(4))
        assert main(["classify", "--disable", "slender", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: COHERENT" in out
        assert "amalgam" in out

    def test_unknown_rule_name_rejected(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_racg(4))
        assert main(["classify", "--disable", "bogus", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_search_cap(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_racg(13))
        assert main(["classify", path]) == 0
        assert "search-cap-exceeded" in capsys.readouterr().out
        assert main(["classify", "--max-search-vertices", "13", path]) == 0
        assert "verdict: COHERENT" in capsys.readouterr().out

    def test_seed_flag_accepted(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_racg(4))
        assert main(["--seed", "7", "classify", path]) == 0
        assert "verdict: COHERENT" in capsys.readouterr().out

    def test_dot_input(self, tmp_path, capsys):
        path = tmp_path / "g.dot"
        path.write_text('graph { flavor = "racg"; a -- b; b -- c; }\n')
        assert main(["classify", str(path)]) == 0
        assert "verdict: COHERENT" in capsys.readouterr().out

    def test_stdin_dash(self, capsys, monkeypatch):
        doc = json.dumps(graph_to_jsonable(cycle_racg(4)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main(["classify", "-"]) == 0
        assert "verdict: COHERENT" in capsys.readouterr().out


class TestCensus:
    def test_text_table(self, capsys):
        assert main(["census", "--flavor", "racg", "--max-vertices", "4"]) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "n   e    total" in out
        assert "smallest incoherent cell: none" in out
        assert "graphs: 75  classes: 18" in out
        assert "census took" in captured.err  # timing kept off stdout

    def test_json_smallest_incoherent(self, capsys):
        assert (
            main(
                [
                    "census",
                    "--flavor",
                    "raag",
                    "--max-vertices",
                    "4",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["smallest_incoherent"] == [4, 4]

    def test_out_file_resume(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        argv = [
            "census", "--flavor", "racg", "--max-vertices", "4", "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 18  # the header, then one record per class
        assert main(argv) == 0
        assert out.read_text().strip().splitlines() == lines
        capsys.readouterr()

    def test_resume_drops_cut_off_last_record(self, tmp_path, capsys):
        out = tmp_path / "rec.jsonl"
        argv = ["census", "--max-vertices", "3", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        uninterrupted = capsys.readouterr().out
        whole = out.read_bytes()
        out.write_bytes(whole[:-40])  # inside the last record
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == uninterrupted
        assert "cut-off last record" in captured.err
        assert out.read_bytes() == whole

    def test_resume_rejects_a_cut_earlier_record(self, tmp_path, capsys):
        out = tmp_path / "rec.jsonl"
        argv = ["census", "--max-vertices", "3", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:40] + "\n"
        out.write_text("".join(lines))
        assert main(argv) == 1
        assert "corrupt census record" in capsys.readouterr().err

    def test_resume_written_by_another_engine_exits_1(self, tmp_path, capsys):
        out = tmp_path / "rec.jsonl"
        run_census(
            CensusConfig(flavor="racg", max_vertices=4),
            out_path=str(out),
            engine_config=EngineConfig(disabled_rules=frozenset(STEP_NAMES)),
        )
        written = out.read_bytes()
        argv = ["census", "--flavor", "racg", "--max-vertices", "4", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: record file") and "\n" not in err
        assert "disabled steps: none" in err
        assert out.read_bytes() == written

    def test_resume_of_a_header_less_file(self, tmp_path, capsys):
        out = tmp_path / "rec.jsonl"
        argv = ["census", "--max-vertices", "4", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        records = out.read_text().split("\n", 1)[1]
        out.write_text(records)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == fresh
        assert "no header line" in captured.err
        assert out.read_text() == records

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
                "is not its verdict's 'UNKNOWN'",
            ),
            (lambda rec: rec.pop("status"), "KeyError: 'status'"),
        ],
        ids=["unverified-status", "no-status"],
    )
    def test_resume_of_a_record_its_verdict_does_not_back_exits_1(
        self, tmp_path, capsys, edit, message
    ):
        out = tmp_path / "rec.jsonl"
        argv = ["census", "--flavor", "racg", "--max-vertices", "2", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        header, *records = out.read_text().splitlines()
        rec = json.loads(records[-1])
        edit(rec)
        out.write_text("\n".join([header, *records[:-1], json.dumps(rec)]) + "\n")
        written = out.read_bytes()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith(f"error: corrupt census record at {out}:{1 + len(records)}: ")
        assert message in err and "\n" not in err
        assert out.read_bytes() == written

    @pytest.mark.parametrize("workers", ["1", "2"], ids=["serial", "pool"])
    @pytest.mark.parametrize(
        "edit",
        [
            {"n": 9},
            {"e": 7},
            {"flavor": ["artin"]},
            {"rule": "mccammond_wise"},
            {"notes": ["bogus"]},
            {"n": 9, "e": 7, "flavor": ["artin"], "rule": "mccammond_wise", "notes": ["bogus"]},
        ],
        ids=["n", "e", "flavor", "rule", "notes", "all"],
    )
    def test_resume_of_a_record_with_forged_summary_fields_exits_1(
        self, tmp_path, capsys, edit, workers
    ):
        """A resumed record's summary fields must be the ones its class
        and its verdict give, or the run ends with one error line."""
        out = tmp_path / "rec.jsonl"
        argv = ["census", "--flavor", "racg", "--max-vertices", "3", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        header, *records = [json.loads(line) for line in out.read_text().splitlines()]
        victim = next(rec for rec in records if rec["n"] == 2)
        victim.update(edit)
        out.write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
        written = out.read_bytes()
        assert main(argv + ["--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith(f"error: corrupt census record for class {victim['key']}: ")
        assert "summary fields" in err and "\n" not in err
        assert out.read_bytes() == written

    def test_workers_stdout_matches_serial(self, capsys):
        argv = ["census", "--flavor", "racg", "--max-vertices", "4", "--format", "json"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_max_vertices_required(self, capsys):
        assert main(["census", "--flavor", "racg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_coxeter_labels(self, capsys):
        argv = [
            "census", "--flavor", "coxeter", "--max-vertices", "2",
            "--labels", "2,3", "--format", "json",
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 1 + 3  # n=1, then empty/label-2/label-3 pairs
        assert doc["edge_labels"] == [2, 3]


class TestDecompose:
    def test_chordal_dirac(self, tmp_path, capsys):
        assert main(["decompose", graph_file(tmp_path, diamond_racg())]) == 0
        out = capsys.readouterr().out
        assert "clique separator split (chordal):" in out
        assert "separator={left,right}" in out

    def test_cycle_search(self, tmp_path, capsys):
        assert main(["decompose", graph_file(tmp_path, cycle_racg(5))]) == 0
        out = capsys.readouterr().out
        assert "slender separator splits" in out
        assert "separator={v0,v2}" in out

    def test_complete(self, tmp_path, capsys):
        assert main(["decompose", graph_file(tmp_path, cycle_racg(3))]) == 0
        assert "complete graph: no separator splits" in capsys.readouterr().out

    def test_disconnected(self, tmp_path, capsys):
        G = LabeledGraph.build(
            [("a", Z), ("b", Z), ("c", Z)], [("a", "b", 2)]
        )
        assert main(["decompose", graph_file(tmp_path, G)]) == 0
        out = capsys.readouterr().out
        assert "free product of 2 components:" in out

    def test_prism_has_no_slender_splits(self, tmp_path, capsys):
        assert main(["decompose", graph_file(tmp_path, prism_racg())]) == 0
        assert "no slender separator splits found" in capsys.readouterr().out

    def test_broken_split_invariant_exits_2(self, tmp_path, capsys, monkeypatch):
        from graphcoherence import decomposition

        monkeypatch.setattr(decomposition, "is_split", lambda adj, within, sides, sep: False)
        assert main(["decompose", graph_file(tmp_path, diamond_racg())]) == 2
        assert "internal error:" in capsys.readouterr().err

    def test_json_structure(self, tmp_path, capsys):
        path = graph_file(tmp_path, path_racg(4))
        assert main(["decompose", "--format", "json", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "dirac"
        split = doc["splits"][0]
        assert set(split) == {"separator", "left", "right", "method"}
        assert split["method"] == "dirac"


@st.composite
def groupless_graphs(draw):
    """Graphs on at most 7 vertices whose labels define no group: mixed
    vertex groups and at least one edge label above 2."""
    n = draw(st.integers(2, 7))
    ids = [f"v{i}" for i in range(n)]
    kinds = st.sampled_from((Z, Z2, cyclic(3), AbelianGroupLabel(rank=2)))
    groups = draw(st.lists(kinds, min_size=n, max_size=n))
    pairs = list(itertools.combinations(ids, 2))
    heavy = draw(st.sampled_from(pairs))
    edges = []
    for u, v in pairs:
        m = draw(st.integers(3, 6) if (u, v) == heavy else st.sampled_from((None, 2, 2, 3, 5)))
        if m is not None:
            edges.append((u, v, m))
    G = LabeledGraph.build(list(zip(ids, groups)), edges)
    assume(not detect_flavor(G).any)
    return G


@settings(max_examples=60, deadline=None)
@given(G=groupless_graphs())
def test_decompose_rejects_graphs_without_a_group(G):
    """Like classify, decompose refuses such a graph whatever its shape:
    disconnected, complete, chordal or not."""
    document = json.dumps(graph_to_jsonable(G))
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(document)), contextlib.redirect_stdout(out):
            with contextlib.redirect_stderr(err):
                assert main(["decompose", "--format", fmt, "-"]) == 1
        assert out.getvalue() == ""
        assert err.getvalue() == "error: edge labels above 2 require all-Z or all-Z2 vertex groups\n"


@pytest.mark.parametrize("command", ["present", "finiteness", "classify", "decompose"])
def test_every_command_refuses_graphs_without_a_group_alike(tmp_path, capsys, command):
    """One condition, one message: the labels of this graph define no
    group, whichever command reads it."""
    path = tmp_path / "mixed.dot"
    path.write_text(
        "graph { a [group=Z]; b [group=Z_3]; c [group=Z]; d [group=Z]; e [group=Z]; "
        "a -- b [label=3]; c -- a; c -- b; d -- a; d -- b; e -- c; e -- d; }\n"
    )
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: edge labels above 2 require all-Z or all-Z2 vertex groups\n"


class TestPresent:
    def test_braid_pair(self, tmp_path, capsys):
        assert main(["present", graph_file(tmp_path, braid_pair())]) == 0
        assert capsys.readouterr().out.strip() == "< a, b | aba = bab >"

    def test_json(self, tmp_path, capsys):
        path = graph_file(tmp_path, braid_pair())
        assert main(["present", "--format", "json", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"presentation": "< a, b | aba = bab >"}

    def test_racg_square(self, tmp_path, capsys):
        G = LabeledGraph.build(
            [("a", AbelianGroupLabel(rank=0, torsion=(2,)))] , []
        )
        assert main(["present", graph_file(tmp_path, G)]) == 0
        assert capsys.readouterr().out.strip() == "< a | a^2 >"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_artin_label_in_power_form(self, tmp_path, capsys, fmt):
        path = tmp_path / "g.dot"
        path.write_text("graph { flavor=artin; a -- b [label=1000000000000]; }")
        assert main(["present", "--format", fmt, str(path)]) == 0
        text = "< a, b | (ab)^500000000000 = (ba)^500000000000 >"
        expected = json.dumps({"presentation": text}) if fmt == "json" else text
        assert capsys.readouterr().out == expected + "\n"

    def test_a_huge_rank_gives_one_short_error_line(self, tmp_path):
        """A vertex group of rank 10^8 would need about 5 * 10^15
        commutators; the count is refused before any generator is named."""
        path = tmp_path / "huge.json"
        path.write_text('{"vertices":[{"id":"a","group":{"rank":100000000}}]}')
        started = time.monotonic()
        proc = _assert_exits_1_without_traceback(
            ["present", str(path)], "", "presentation has over 100000000 relations"
        )
        assert time.monotonic() - started < 2
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) <= 300

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("text", "eb4ceefe01007441ead0bdadcad70336a7bac2b997e2a20283d8ef13b04bd9ae"),
            ("json", "e70a0abad4e20c5e808e57c2441a1fd079b905e066cfcca4dc963595ee1eef18"),
        ],
    )
    def test_rank_1000_below_the_bound_is_written_in_full(self, tmp_path, capsys, fmt, digest):
        """499,500 commutators, under the relation bound: the output is the
        one written before the bound existed."""
        path = tmp_path / "rank.json"
        path.write_text('{"vertices":[{"id":"a","group":{"rank":1000}}]}')
        assert main(["present", "--format", fmt, str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_pieces_join_to_the_whole_presentation(self, tmp_path, capsys, monkeypatch, fmt):
        """present writes the presentation in pieces, here of two
        relations each; JSON escapes each piece on its own, which joins
        to the escaped whole, also for ids of quotes, backslashes and
        code points outside the BMP."""
        monkeypatch.setattr(group_model, "_RELATIONS_PER_PIECE", 2)
        ids = ['a"q', "b\\", "c\u00e9", "d\U0001F600", "e"]
        G = graph_product_graph(
            [(v, AbelianGroupLabel(rank=2, torsion=(3,))) for v in ids],
            [(ids[0], ids[1]), (ids[1], ids[2]), (ids[3], ids[4])],
        )
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_jsonable(G)))
        assert main(["present", "--format", fmt, str(path)]) == 0
        text = emit_presentation(G)
        assert text.count("],") > 10
        expected = json.dumps({"presentation": text}) if fmt == "json" else text
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_rank_3000_streams_in_bounded_memory(self, tmp_path):
        """4.5 M commutators, 78 MB of text: the process's peak RSS stays
        far below the text's size (it was 507 MB when the text was built
        whole).  The peak is the kernel's VmHWM of the process's own
        memory, which, unlike ``ru_maxrss``, does not count the forked
        test process before ``exec``."""
        path = tmp_path / "rank.json"
        path.write_text('{"vertices":[{"id":"a","group":{"rank":3000}}]}')
        script = (
            "import re, sys\n"
            "from graphcoherence.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1), file=sys.stderr)\n"
            "sys.exit(status)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "present", str(path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=_env_with_src(),
            timeout=120,
        )
        assert proc.returncode == 0
        peak_mb = int(proc.stderr) / 1024
        assert peak_mb <= 60, peak_mb


class TestFiniteness:
    def test_finite_symmetric(self, tmp_path, capsys):
        path = graph_file(tmp_path, symmetric_coxeter_k4())
        assert main(["finiteness", path]) == 0
        out = capsys.readouterr().out
        assert "finite, order 120" in out
        assert "A4" in out

    def test_infinite_pair(self, tmp_path, capsys):
        z2 = AbelianGroupLabel(rank=0, torsion=(2,))
        G = LabeledGraph.build([("a", z2), ("b", z2)], [])
        assert main(["finiteness", graph_file(tmp_path, G)]) == 0
        out = capsys.readouterr().out
        assert "infinite" in out
        assert "~A1" in out

    def test_product_order(self, tmp_path, capsys):
        path = graph_file(tmp_path, product_pair())
        assert main(["finiteness", path]) == 0
        assert "finite, order 12" in capsys.readouterr().out

    def test_json(self, tmp_path, capsys):
        path = graph_file(tmp_path, symmetric_coxeter_k4())
        assert main(["finiteness", "--format", "json", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finite"] is True and doc["order"] == 120

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["classify", "finiteness"])
    def test_orders_above_4300_digits(self, tmp_path, capsys, command, fmt):
        """By default Python converts no int of more than 4,300 digits to
        a str.  The order is printed exactly anyway, and in JSON as an int
        of at most 4,300 digits and as the string of its digits above."""
        for a, b in ((2150, 2149), (2200, 2200)):
            G = LabeledGraph.build(
                [("a", cyclic(10**a)), ("b", cyclic(10**b))], [("a", "b", 2)]
            )
            assert main([command, "--format", fmt, graph_file(tmp_path, G)]) == 0
            out = capsys.readouterr().out
            digits = "1" + "0" * (a + b)
            if fmt == "text":
                assert f" order {digits}\n" in out
            else:
                doc = json.loads(out)
                order = (doc["finiteness"] if command == "classify" else doc)["order"]
                assert order == (10 ** (a + b) if len(digits) <= 4300 else digits)

    def test_a13_on_13_vertices(self, tmp_path, capsys):
        # Bond 3 along a path, label 2 elsewhere: the A13 diagram, one
        # vertex above the default canonical-form cap.
        ids = [f"s{i}" for i in range(13)]
        G = LabeledGraph.build(
            [(v, Z2) for v in ids],
            [
                (u, v, 3 if j == i + 1 else 2)
                for (i, u), (j, v) in itertools.combinations(enumerate(ids), 2)
            ],
        )
        path = graph_file(tmp_path, G)
        assert main(["finiteness", "--format", "json", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finite"] is True and doc["order"] == 87178291200
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.startswith("verdict: COHERENT\n")


# Integers above the float range (about 1.8e308), as labels and torsion:
# canonical labeling, the free-pair test and diagram typing must not
# convert them to floats.
BIG = 10**400
LABELS_ABOVE_FLOAT_RANGE = {
    "artin-path.dot": f"graph {{ flavor=artin; a -- b [label={BIG}]; b -- c; }}",
    "coxeter-path-2.dot": f"graph {{ flavor=coxeter; a -- b [label={BIG}]; b -- c [label=2]; }}",
    "coxeter-path-3.dot": f"graph {{ flavor=coxeter; a -- b [label={BIG}]; b -- c [label=3]; }}",
    "coxeter-triangle.dot": (
        f"graph {{ flavor=coxeter; a -- b [label={BIG}]; b -- c [label=3]; a -- c [label=3]; }}"
    ),
    "torsion-pair.json": json.dumps(
        {"vertices": [{"id": "a", "group": {"torsion": [BIG]}}, {"id": "b", "group": "Z"}]}
    ),
}


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/graph.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_bom_rejected(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        doc = json.dumps(graph_to_jsonable(cycle_racg(4)))
        path.write_text("﻿" + doc)
        assert main(["classify", str(path)]) == 1
        assert "byte-order mark" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_bad_format_choice(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_racg(4))
        assert main(["classify", "--format", "xml", path]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["classify", "GRAPH"], ["census", "--flavor", "racg", "--max-vertices", "3"]],
        ids=["classify", "census"],
    )
    def test_evidence_failing_its_recheck_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        from graphcoherence import coherence_engine
        from graphcoherence.coherence_engine import VerificationOutcome

        broken = VerificationOutcome(ok=False, path=("root",), reason="tampered")
        monkeypatch.setattr(coherence_engine, "verify_proof", lambda *args, **kwargs: broken)
        path = graph_file(tmp_path, cycle_racg(4))
        assert main([path if a == "GRAPH" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal error: proof for ") and "tampered" in err

    def test_unsupported_flavor_graph(self, tmp_path, capsys):
        z3 = AbelianGroupLabel(rank=0, torsion=(3,))
        G = LabeledGraph.build([("a", z3), ("b", z3)], [("a", "b", 3)])
        assert main(["classify", graph_file(tmp_path, G)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"flavor": "racg", "vertices": [{"id": "a"}], "edges": [{"u": ["x"], "v": "a"}]}',
             "edge endpoints must be vertex ids"),
            ('{"flavor": "racg", "vertices": [{"id": "a"}], "edges": [{"u": {}, "v": "a"}]}',
             "edge endpoints must be vertex ids"),
            ('{"flavor": ["racg"], "vertices": [{"id": "a"}]}', "unknown flavor"),
            ("[1]", "top-level JSON value must be an object"),
            ('{"vertices": [{"id": "a", "group": "Q_2"}]}', "cannot parse group label 'Q_2'"),
            ('{"vertices": [{"id": "a", "group": "Z_1"}]}', "torsion invariant factors must be integers >= 2"),
            ('{"vertices": [{"id": "a", "group": 2}]}', "vertex group must be a string or an object"),
        ],
        ids=[
            "list-endpoint",
            "object-endpoint",
            "list-flavor",
            "top-level-array",
            "bad-group-string",
            "trivial-group-string",
            "number-group",
        ],
    )
    def test_malformed_json_exits_1_without_traceback(self, doc, message):
        _assert_exits_1_without_traceback(["classify", "-"], doc, message)

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--flavor", "coxeter", "--labels", "3,3"], "edge labels must be distinct"),
            (["--max-edges", "-1"], "max_edges must be >= 0"),
            (["--workers", "0"], "workers must be >= 1, not 0"),
            (["--workers", "-3"], "workers must be >= 1, not -3"),
            (
                ["--flavor", "coxeter", "--labels", "2,x"],
                "argument --labels: expected comma-separated integers, got '2,x'",
            ),
        ],
        ids=[
            "repeated-label",
            "negative-max-edges",
            "zero-workers",
            "negative-workers",
            "non-integer-label",
        ],
    )
    def test_bad_census_option_exits_1_without_traceback(self, options, message):
        _assert_exits_1_without_traceback(
            ["census", "--max-vertices", "2", *options], "", message
        )

    @pytest.mark.parametrize(
        "command, line", [("classify", "finite: yes, order 200000"), ("finiteness", "finite, order 200000")]
    )
    def test_huge_coxeter_label_exits_0(self, tmp_path, capsys, command, line):
        path = tmp_path / "g.dot"
        path.write_text('graph { flavor="coxeter"; a -- b [label=100000]; }')
        assert main([command, str(path)]) == 0
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--max-search-vertices", "-5", "-"],
            ["census", "--max-vertices", "3", "--max-search-vertices", "-1"],
        ],
        ids=["classify", "census"],
    )
    def test_negative_search_cap_exits_1(self, argv):
        _assert_exits_1_without_traceback(
            argv, "graph { flavor=racg; a -- b; }", "max_search_vertices must be at least 0, got -"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["classify", "finiteness", "decompose", "present"])
    @pytest.mark.parametrize("name", sorted(LABELS_ABOVE_FLOAT_RANGE))
    def test_labels_above_the_float_range_exit_0(self, tmp_path, capsys, name, command, fmt):
        path = tmp_path / name
        path.write_text(LABELS_ABOVE_FLOAT_RANGE[name])
        assert main([command, "--format", fmt, str(path)]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply to read"),
            (
                "graph { a -- b [label=" + "9" * 5000 + "]; }",
                "edge label must be an integer, got a label of 5000 characters",
            ),
        ],
        ids=["deeply-nested-json", "5000-digit-dot-label"],
    )
    def test_a_huge_document_part_gives_one_short_error_line(self, doc, message):
        proc = _assert_exits_1_without_traceback(["classify", "-"], doc, message)
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) <= 300

    def test_census_with_a_huge_label_exits_0(self, capsys):
        argv = ["census", "--flavor", "coxeter", "--max-vertices", "2", "--labels", "2,70249"]
        assert main(argv) == 0
        assert "graphs: 4  classes: 4" in capsys.readouterr().out

    def test_census_on_a_record_file_in_use_exits_1(self, tmp_path):
        out = tmp_path / "rec.jsonl"
        argv = ["census", "--max-vertices", "3", "--out", str(out)]
        assert main(argv) == 0
        written = out.read_bytes()
        with open(out, "ab") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            _assert_exits_1_without_traceback(argv, "", "is in use by another census")
        assert out.read_bytes() == written


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def _assert_exits_1_without_traceback(argv, stdin, message):
    """Run the CLI as a process, so an uncaught exception would show as a
    traceback on stderr instead of failing inside the test."""
    proc = subprocess.run(
        [sys.executable, "-m", "graphcoherence.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr, proc.stderr
    return proc


# The runtime needs no numpy: these runs block its import.
NUMPY_FREE_GRAPHS = {
    "h3": "graph { flavor=coxeter; a -- b [label=5]; b -- c [label=3]; a -- c [label=2]; }",
    "f4": (
        "graph { flavor=coxeter; a -- b [label=3]; b -- c [label=4]; c -- d [label=3];"
        " a -- c [label=2]; a -- d [label=2]; b -- d [label=2]; }"
    ),
    "triangle-237": "graph { flavor=coxeter; a -- b [label=2]; b -- c [label=3]; a -- c [label=7]; }",
    "complete-4": (
        "graph { flavor=coxeter; a -- b [label=3]; a -- c [label=3]; a -- d [label=3];"
        " b -- c [label=3]; b -- d [label=3]; c -- d [label=3]; }"
    ),
    "i2-huge": "graph { flavor=coxeter; a -- b [label=1000000000000]; }",
}

NUMPY_BLOCKED_SHIM = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from graphcoherence.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    results.append([status, out.getvalue()])
print(json.dumps(results))
"""


def test_commands_run_with_numpy_blocked(tmp_path, capsys):
    """A process in which ``import numpy`` fails gives the exit codes and
    stdout of the same commands run here: finite diagrams, indefinite
    ones that match no template, and a Coxeter census."""
    argvs = [["census", "--flavor", "coxeter", "--max-vertices", "4", "--labels", "5,3"]]
    for name, dot in NUMPY_FREE_GRAPHS.items():
        path = tmp_path / f"{name}.dot"
        path.write_text(dot)
        for command in ("classify", "finiteness", "present", "decompose"):
            argvs.append([command, str(path)])
    expected = []
    for argv in argvs:
        status = main(argv)
        expected.append([status, capsys.readouterr().out])
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_SHIM, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


# -- one parser per process ------------------------------------------------------

ARTIN_PATH = "graph { flavor=artin; a -- b [label=3]; b -- c [label=2]; c -- d [label=3]; }\n"


def _script_stdout(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "graphcoherence.cli", *argv],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestParserReuse:
    """``main`` builds its parser once per process, so no call may
    leave state on it that a later call sees."""

    def test_disabled_rule_does_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "artin.dot"
        path.write_text(ARTIN_PATH)
        assert main(["classify", "--disable", "wise_gordon", str(path)]) == 0
        disabled = capsys.readouterr().out
        assert main(["classify", str(path)]) == 0
        plain = capsys.readouterr().out
        assert plain != disabled
        assert plain == _script_stdout(["classify", str(path)])

    def test_calls_after_a_usage_error_and_after_help(self, tmp_path, capsys):
        path = tmp_path / "artin.dot"
        path.write_text(ARTIN_PATH)
        expected = _script_stdout(["classify", "--format", "json", str(path)])
        argv = ["classify", "--disable", "wise_gordon", "--format", "xml", str(path)]
        assert main(argv) == 1
        capsys.readouterr()
        assert main(["classify", "--format", "json", str(path)]) == 0
        assert capsys.readouterr().out == expected
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", "--disable", "wise_gordon", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: graphcoherence classify")
        assert main(["classify", "--format", "json", str(path)]) == 0
        assert capsys.readouterr().out == expected

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "artin.dot"
        path.write_text(ARTIN_PATH)
        assert main(["present", str(path)]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (
            ["classify", str(path)],
            ["classify", "--disable", "wise_gordon", str(path)],
            ["finiteness", str(path)],
            ["decompose", "--format", "json", str(path)],
            ["present", str(path)],
            ["census", "--max-vertices", "2"],
        ):
            assert main(argv) == 0
        assert built == []
