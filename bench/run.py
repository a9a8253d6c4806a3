"""Benchmark of graphcoherence through its command line entry point.

Runs one workload (or ``all``) in-process through
``graphcoherence.cli.main(argv)`` with stdout captured, checks every
operation's output, and prints each metric by name and unit; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

    python3 bench/run.py --workload census-racg --seed 1 --seconds 15 --trace 0

Timing.  On a shared 2-vCPU host the same call runs up to about 1.8x
slower in spells lasting from under a second to minutes, so no statistic
of absolute times repeats from run to run: a whole run can fall in a slow
spell.  Each call of the program is therefore paired with the same call
made, right before or after it, through ``graphcoherence_seed`` -- a
verbatim copy of ``src/graphcoherence`` at the commit that added this
benchmark, which later changes leave alone -- and the timing metrics are
medians of the paired ratios (program / seed; below 1 is faster than the
seed).  Which side goes first alternates from pass to pass.

* ``pass_vs_seed``: per pass over the workload's inputs, the program's
  summed call time over the seed's.
* ``input_median_vs_seed``: each input's median call ratio, median over
  the inputs (the typical input's latency against the seed).
* ``slowest_input_vs_seed``: the call ratio of the slowest input (the
  tail latency against the seed).
* ``setup_s`` and ``peak_rss_mb``: a set-up imports the package (numpy
  included), writes the inputs and makes one warm-up pass, in a fresh
  process.  Three set-ups of the program alternate with three of the
  seed copy; ``setup_s`` is the median paired ratio times the seed copy's
  set-up seconds recorded in ``SEED_SETUP_S``, and ``peak_rss_mb`` the
  median peak RSS of the program's set-up processes.

Raw call times (fastest, median) are printed as diagnostics and saved.

Checks.  With the default seed every operation's stdout must match the
SHA-256 in ``golden.json``; with any seed every call must repeat the
warm-up's stdout, and every COHERENT/INCOHERENT verdict of a classify
input is re-verified from its ``--format json`` output.

``--trace 1`` pairs untraced with traced calls of the program instead
(see ``tracer.py``) and reports the per-layer table of the fastest
traced pass and ``trace.overhead_share``.  Results, stamped with the
environment, go to ``.bench_results/``.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the benchmark could not run (no result
line).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
SETUP_SAMPLES = 3
# Set-up seconds of the seed copy in a fast spell of a 2.1 GHz Xeon vCPU.
# setup_s is the program's set-up time over the seed copy's, paired in
# fresh processes, times this: seconds at that host speed.
SEED_SETUP_S = {
    "census-racg": 0.33,
    "census-coxeter": 0.52,
    "classify-search": 0.83,
    "classify-proofs": 0.8,
}

END_TO_END = (
    ("pass_vs_seed", "ratio"),
    ("input_median_vs_seed", "ratio"),
    ("slowest_input_vs_seed", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Targets that every workload calls; the others get call counts only, as
# their time would read exactly 0 on the workloads that never call them.
TIMED_TARGETS = (
    "labeled_graph.canonical_form",
    "labeled_graph.LabeledGraph.build",
    "labeled_graph.LabeledGraph.induced",
    "labeled_graph.detect_flavor",
    "labeled_graph.is_chordal",
    "decomposition.enumerate_separator_splits",
    "group_model.is_slender",
    "group_model.classify_components",
    "coherence_engine.Classifier.classify",
    "coherence_engine.witness_join_incoherence",
    "cli.main",
)
PER_LAYER = (
    [(f"{t.name}.calls", "count") for t in TARGETS]
    + [(f"{name}.{kind}", "s") for name in TIMED_TARGETS for kind in ("self_s", "incl_s")]
    + [
        ("census.enumerate_graphs.graphs", "count"),
        ("decomposition.enumerate_separator_splits.splits", "count"),
        ("group_model.is_slender.slender_share", "ratio"),
        ("trace.overhead_share", "ratio"),
    ]
)


class SetupError(Exception):
    """The benchmark cannot run: no result line is printed."""


@dataclass
class Call:
    op: workloads.Operation
    status: Optional[int]  # exit code, or None when main raised
    stdout: str
    seconds: float
    error: str = ""

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def call(cli, op: workloads.Operation, directory: str, extra=(), tracer: Optional[Tracer] = None) -> Call:
    """Run ``cli.main`` on one operation, traced when a tracer is given.
    ``main`` is looked up on the module at each call so that the tracer's
    wrapper takes its place."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                status: Optional[int] = cli.main([*op.argv(directory), *extra])
            except Exception as e:  # a raising operation is a failed operation
                status = None
                err.write(f"{type(e).__name__}: {e}")
            seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Call(op, status, out.getvalue(), seconds, err.getvalue().strip())


@contextlib.contextmanager
def work_directory():
    os.makedirs(WORK_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def set_up(workload: str, seed: int, directory: str, package: str = "graphcoherence"):
    """Import the package, write the inputs and make one warm-up pass.
    Returns (the cli module, operations, warm-up calls, seconds taken)."""
    start = time.perf_counter()
    try:
        cli = importlib.import_module(f"{package}.cli")
    except ImportError as e:
        raise SetupError(f"cannot import {package}: {e}") from None
    if package == "graphcoherence" and not cli.__file__.startswith(os.path.join(ROOT, "src")):
        raise SetupError(f"graphcoherence was imported from outside {ROOT}/src")
    ops = workloads.operations(workload, seed)
    for op in ops:
        if op.document is not None:
            with open(os.path.join(directory, f"{op.name}.json"), "w", encoding="utf-8") as fh:
                fh.write(op.document)
    warm = [call(cli, op, directory) for op in ops]
    return cli, ops, warm, time.perf_counter() - start


def setup_probe(workload: str, seed: int, package: str) -> dict:
    """Set-up time and peak RSS of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe", package],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- checks -----------------------------------------------------------------


def reference_digests(workload: str, seed: int, warm: list[Call]) -> dict[str, str]:
    """Expected stdout digest per operation: the stored one where the
    inputs are the stored ones, else the warm-up's."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    if seed == golden["seed"] or workload in workloads.CENSUS_ARGV:
        return dict(golden["workloads"][workload])
    return {c.op.name: c.digest for c in warm}


def call_failure(c: Call, expected: Optional[str]) -> Optional[str]:
    if c.status != 0:
        return f"{c.op.name}: exit {c.status} {c.error}"
    if expected is None:
        return f"{c.op.name}: no stored stdout digest"
    if c.digest != expected:
        return f"{c.op.name}: stdout digest {c.digest[:12]} != expected {expected[:12]}"
    return None


def evidence_failure(cli, op: workloads.Operation, directory: str, text: Call) -> Optional[str]:
    """Re-verify a classify verdict from its ``--format json`` output
    against the input document."""
    from graphcoherence.coherence_engine import (
        COHERENT,
        INCOHERENT,
        verdict_from_jsonable,
        verify_proof,
        verify_witness,
    )
    from graphcoherence.labeled_graph import parse_graph

    c = call(cli, op, directory, ("--format", "json"))
    if c.status != 0:
        return f"{op.name} --format json: exit {c.status} {c.error}"
    verdict = verdict_from_jsonable(json.loads(c.stdout)["verdict"])
    G = parse_graph(op.document)
    if verdict.status == COHERENT:
        outcome = verify_proof(G, verdict.proof)
    elif verdict.status == INCOHERENT:
        outcome = verify_witness(G, verdict.witness)
    else:
        outcome = None
    if outcome is not None and not outcome:
        return f"{op.name}: evidence fails verification: {outcome.reason}"
    if text.stdout.partition("\n")[0] != f"verdict: {verdict.status}":
        return f"{op.name}: text and json verdicts differ"
    return None


# -- measurement ---------------------------------------------------------------


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Paired passes for ``seconds``: each call of the program next to the
    same call through the seed copy or, with ``trace``, through the traced
    program."""
    with work_directory() as directory:
        cli, ops, warm, _ = set_up(workload, seed, directory)
        expected = reference_digests(workload, seed, warm)
        failures = [f for f in (call_failure(c, expected.get(c.op.name)) for c in warm) if f]
        attempted = len(warm)
        if not trace:
            import graphcoherence_seed.cli as seed_cli

            for op in ops:
                call(seed_cli, op, directory)

        program: list[list[Call]] = []  # per pass, per operation
        other: list[list[Call]] = []
        tracers: list[Tracer] = []
        deadline = time.perf_counter() + seconds
        while not program or time.perf_counter() < deadline:
            gc.collect()
            tracer = Tracer() if trace else None
            mine, theirs = [], []
            for op_id, op in enumerate(ops, 1):
                for side in (0, 1) if len(program) % 2 == 0 else (1, 0):
                    if side == 0:
                        mine.append(call(cli, op, directory))
                    elif trace:
                        tracer.operation = op_id
                        theirs.append(call(cli, op, directory, tracer=tracer))
                    else:
                        theirs.append(call(seed_cli, op, directory))
            program.append(mine)
            other.append(theirs)
            if trace:
                tracers.append(tracer)
            checked = mine + theirs if trace else mine
            attempted += len(checked)
            failures.extend(f for f in (call_failure(c, expected.get(c.op.name)) for c in checked) if f)
            if not trace:
                failures.extend(f"seed copy failed on {c.op.name}: {c.error}" for c in theirs if c.status != 0)

        for op, text in zip(ops, warm):
            if op.document is not None:
                attempted += 1
                failure = evidence_failure(cli, op, directory, text)
                if failure:
                    failures.append(failure)

    program_s, other_s = totals(program), totals(other)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "operations": [op.name for op in ops],
        "passes": len(program),
        "pass_s": {"fastest": min(program_s), **quartiles(program_s)},
        "call_ms": call_summary(ops, program),
        "attempted": attempted,
        "failures": failures,
    }
    if trace:
        best = min(range(len(tracers)), key=other_s.__getitem__)
        table = tracers[best].table()
        overhead = statistics.median(b / a for a, b in zip(program_s, other_s)) - 1
        result["table"] = table
        result["metrics"] = per_layer_metrics(table, overhead)
        result["tracer"] = tracers[best]
        return result

    ratios = {
        op.name: statistics.median(mine[k].seconds / theirs[k].seconds for mine, theirs in zip(program, other))
        for k, op in enumerate(ops)
    }
    seed_median = call_summary(ops, other)
    # Pick the slowest input by both sides' calls: picking it by the seed
    # side's alone favours an input whose seed calls ran slow, biasing the
    # ratio low.
    slowest = max(ops, key=lambda op: statistics.median(c.seconds for p in program + other for c in p if c.op is op)).name
    probes = []
    for k in range(SETUP_SAMPLES):
        order = ("graphcoherence", "graphcoherence_seed")[:: 1 if k % 2 == 0 else -1]
        probes.append({package: setup_probe(workload, seed, package) for package in order})
    setup_ratio = statistics.median(p["graphcoherence"]["setup_s"] / p["graphcoherence_seed"]["setup_s"] for p in probes)
    result["seed_call_ms"] = seed_median
    result["call_vs_seed"] = ratios
    result["setup_samples"] = probes
    result["metrics"] = {
        "pass_vs_seed": statistics.median(a / b for a, b in zip(program_s, other_s)),
        "input_median_vs_seed": statistics.median(ratios.values()),
        "slowest_input_vs_seed": ratios[slowest],
        "peak_rss_mb": statistics.median(p["graphcoherence"]["peak_rss_mb"] for p in probes),
        "setup_s": setup_ratio * SEED_SETUP_S[workload],
    }
    return result


def totals(passes: list[list[Call]]) -> list[float]:
    return [sum(c.seconds for c in p) for p in passes]


def call_summary(ops, passes: list[list[Call]]) -> dict[str, dict[str, float]]:
    """Fastest and median call per operation, in milliseconds."""
    out = {}
    for k, op in enumerate(ops):
        times = [p[k].seconds * 1000 for p in passes]
        out[op.name] = {"fastest": min(times), "median": statistics.median(times)}
    return out


def per_layer_metrics(table: dict, overhead: float) -> dict[str, float]:
    values = {}
    for name, row in table.items():
        for key, value in row.items():
            values[f"{name}.{key}"] = value
    values["trace.overhead_share"] = overhead
    return {name: values[name] for name, _ in PER_LAYER}


# -- reporting -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def print_report(result: dict, units: dict[str, str]) -> None:
    ops = result["operations"]
    failures = result["failures"]
    print(
        f"{result['workload']}  seed={result['seed']}  trace={result['trace']}  "
        f"passes={result['passes']}  inputs={len(ops)}  "
        f"attempted={result['attempted']}  failed={len(failures)}"
    )
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    for name, value in result["metrics"].items():
        print(f"  {name:<58} {value:>14.6g} {units[name]}")
    if "table" in result:
        print(f"  {'per-layer table (fastest traced pass)':<58} {'calls':>8} {'self_s':>10} {'incl_s':>10}")
        for name, row in result["table"].items():
            print(f"  {name:<58} {row['calls']:>8} {row['self_s']:>10.4f} {row['incl_s']:>10.4f}")
    else:
        print(f"  failed share: {len(failures)}/{result['attempted']}")
        print(f"  {'input: ms fastest / median, seed fastest / median, ratio':<58}")
        for name in ops:
            mine, seed = result["call_ms"][name], result["seed_call_ms"][name]
            print(
                f"    {name:<24} {mine['fastest']:9.2f} {mine['median']:9.2f}  "
                f"{seed['fastest']:9.2f} {seed['median']:9.2f}  {result['call_vs_seed'][name]:.4f}"
            )
        print("  set-up samples (program vs seed copy):")
        for p in result["setup_samples"]:
            mine, seed = p["graphcoherence"], p["graphcoherence_seed"]
            print(f"    {mine['setup_s']:.4f} s {mine['peak_rss_mb']:.1f} MB  vs  {seed['setup_s']:.4f} s {seed['peak_rss_mb']:.1f} MB")
    q = result["pass_s"]
    print(
        f"  diagnostic pass_s over {result['passes']} passes: fastest {q['fastest']:.4f}  "
        f"median {q['median']:.4f}  q1 {q['q1']:.4f}  q3 {q['q3']:.4f}"
    )


def save(result: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}")
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), **result}, fh, indent=1)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print_report(result, units)
    save(result)
    failed = len(result["failures"])
    print(result_line(failed == 0, result["attempted"], failed, result["metrics"], units))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for workload in workloads.WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            raise SetupError(f"workload {workload} did not run (exit {proc.returncode})")
        line = json.loads(proc.stdout.splitlines()[-1])
        correct &= line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        for name, m in line["metrics"].items():
            metrics[f"{workload}.{name}"] = m["value"]
            units[f"{workload}.{name}"] = m["unit"]
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def write_golden() -> int:
    stored = {}
    for workload in workloads.WORKLOAD_NAMES:
        with work_directory() as directory:
            warm = set_up(workload, workloads.DEFAULT_SEED, directory)[2]
        for c in warm:
            if c.status != 0:
                print(f"{workload}/{c.op.name}: exit {c.status} {c.error}", file=sys.stderr)
                return 1
        stored[workload] = {c.op.name: c.digest for c in warm}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "workloads": stored}, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("graphcoherence", "graphcoherence_seed"), help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true", help="store stdout digests for the default seed")
    args = parser.parse_args(argv)
    try:
        if args.write_golden:
            return write_golden()
        if args.setup_probe:
            with work_directory() as directory:
                setup_s = set_up(args.workload, args.seed, directory, args.setup_probe)[3]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (SetupError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
