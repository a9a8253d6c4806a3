"""An interrupted command (Ctrl-C) prints one ``error: interrupted`` line
and exits 1, and an interrupted census resumes to the output of a run
that was never interrupted."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphcoherence import census
from graphcoherence.cli import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
RACG_6 = ["census", "--flavor", "racg", "--max-vertices", "6"]


def test_an_interrupted_census_resumes_to_a_fresh_run(tmp_path, capsys, monkeypatch):
    fresh = tmp_path / "fresh.jsonl"
    assert main(RACG_6 + ["--out", str(fresh)]) == 0
    expected = capsys.readouterr().out

    calls = []
    record_job = census._record_job

    def interrupted(*args):
        calls.append(None)
        if len(calls) > 5:
            raise KeyboardInterrupt
        return record_job(*args)

    monkeypatch.setattr(census, "_record_job", interrupted)
    resumed = tmp_path / "resumed.jsonl"
    assert main(RACG_6 + ["--out", str(resumed)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: interrupted\n")
    # The header and the five records tallied before the interrupt.
    assert len(resumed.read_bytes().splitlines()) == 6

    monkeypatch.setattr(census, "_record_job", record_job)
    assert main(RACG_6 + ["--out", str(resumed)]) == 0
    assert capsys.readouterr().out == expected
    assert resumed.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ctrl_c_to_the_process_group_prints_one_line(tmp_path, workers):
    """SIGINT goes to the census and, with ``--workers``, to its pool
    workers too, as a terminal's Ctrl-C does: only the main process
    reports it."""
    out = tmp_path / "records.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    argv = ["census", "--flavor", "racg", "--max-vertices", "8", "--workers", workers]
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphcoherence.cli", *argv, "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
        # A shell that starts this test in the background ignores SIGINT in
        # it, and so would the child; a terminal's child gets the default.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 30
        # Wait for the header and the first record.
        while not out.exists() or out.read_bytes().count(b"\n") < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1
    assert "Traceback" not in stderr
    assert stderr == "error: interrupted\n"
    assert stdout == ""
