"""A record file whose stored verdicts have fields of the wrong shape is
refused cleanly on resume: exit 1 for a record that does not parse as a
verdict, nested too deep to parse included, exit 2 for evidence that
parses but does not verify, and never a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from graphcoherence.cli import main

# Values a hand-edited or damaged record might hold in place of any field.
WRONG_VALUES = (5, -1.5, True, None, "zzz", "", [], [5], ["zzz"], [["a"]], {}, {"a": 1})

SWEEPS = {"racg": 5, "raag": 4}


def census_argv(flavor: str, out: str) -> list[str]:
    return ["census", "--flavor", flavor, "--max-vertices", str(SWEEPS[flavor]), "--out", out]


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """Each sweep's record file, as lines."""
    files = {}
    for flavor in SWEEPS:
        out = str(tmp_path_factory.mktemp(flavor) / "census.jsonl")
        assert run(census_argv(flavor, out))[0] == 0
        with open(out, encoding="utf-8") as fh:
            files[flavor] = fh.read().splitlines(keepends=True)
    return files


def field_paths(value, path=()):
    """The path of every field, list item and nested value in ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for k, v in items:
        yield path + (k,)
        if isinstance(v, (dict, list)):
            yield from field_paths(v, path + (k,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@settings(max_examples=150)
@given(data=st.data(), flavor=st.sampled_from(sorted(SWEEPS)))
def test_a_mistyped_field_fails_cleanly_on_resume(record_files, data, flavor):
    lines = record_files[flavor]
    line = data.draw(st.integers(1, len(lines) - 1), label="line")
    rec = json.loads(lines[line])
    path = data.draw(st.sampled_from(list(field_paths(rec))), label="field")
    value = data.draw(st.sampled_from(WRONG_VALUES), label="value")
    edited = lines[:line] + [json.dumps(replaced(rec, path, value)) + "\n"] + lines[line + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "census.jsonl")
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(edited)
        status, err = run(census_argv(flavor, out))
    assert status in (0, 1, 2)
    if status == 1:
        assert err.startswith(f"error: corrupt census record at {out}:{line + 1}: "), err
    elif status == 2:
        assert err.startswith("internal error: "), err


def resume_edited(tmp_path, edit) -> tuple[int, str, str]:
    """Write the racg record file, let ``edit`` change the record of the
    first class whose proof is an amalgam, and resume: the exit code,
    stderr, and where that record is, as ``path:line``."""
    out = str(tmp_path / "census.jsonl")
    assert run(census_argv("racg", out))[0] == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.readlines()
    line = next(i for i, text in enumerate(lines) if '"rule": "amalgam"' in text)
    rec = json.loads(lines[line])
    edit(rec)
    lines[line] = json.dumps(rec) + "\n"
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    status, err = run(census_argv("racg", out))
    return status, err, f"{out}:{line + 1}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("separator", 5, "separator: expected an array, got a number"),
        ("left", [["a"]], "left: expected a string, got an array"),
        ("method", None, "method: expected a string, got null"),
    ],
)
def test_a_mistyped_split_field_fails_verification(tmp_path, field, value, message):
    status, err, _ = resume_edited(
        tmp_path, lambda rec: rec["verdict"]["proof"]["data"].update({field: value})
    )
    assert status == 2
    assert f"fails verification at root: amalgam node has a malformed field: {message}" in err


def test_a_split_side_and_its_child_listing_a_vertex_twice_fail_verification(tmp_path):
    def edit(rec):
        proof = rec["verdict"]["proof"]
        for listed in (proof["data"]["left"], proof["children"][0]["vertices"]):
            listed.insert(0, listed[0])

    status, err, _ = resume_edited(tmp_path, edit)
    assert status == 2
    assert "fails verification at root: amalgam left lists a vertex twice" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda proof: proof.update(vertices=[["a"]]), "proof: vertices: expected a string, got an array"),
        (lambda proof: proof.update(vertices=5), "proof: vertices: expected an array, got a number"),
        (lambda proof: proof.update(rule=["amalgam"]), "proof: rule: expected a string, got an array"),
        (lambda proof: proof.update(data=[1]), "proof: data: expected an object, got an array"),
        (lambda proof: proof.update(key=None), "proof: key: expected a string, got null"),
        (lambda proof: proof["children"].append(5), "proof: children: expected an object, got a number"),
    ],
    ids=["nested-vertices", "int-vertices", "list-rule", "list-data", "null-key", "int-child"],
)
def test_a_mistyped_proof_node_is_a_corrupt_record(tmp_path, edit, message):
    status, err, where = resume_edited(tmp_path, lambda rec: edit(rec["verdict"]["proof"]))
    assert (status, err) == (1, f"error: corrupt census record at {where}: ValueError: {message}\n")


def test_a_verdict_of_an_unknown_status_is_a_corrupt_record(tmp_path):
    def edit(rec):
        rec["status"] = rec["verdict"]["status"] = "MAYBE"

    status, err, where = resume_edited(tmp_path, edit)
    assert (status, err) == (
        1, f"error: corrupt census record at {where}: ValueError: unknown status 'MAYBE'\n"
    )


def resume_with_second_line(tmp_path, lines: list[str], text: str) -> tuple[int, str, str]:
    """Resume the raag sweep from ``lines`` with ``text`` as line 2: the
    exit code, stderr, and the record file's path."""
    out = str(tmp_path / "census.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:1] + [text] + lines[1:])
    status, err = run(census_argv("raag", out))
    return status, err, out


def test_a_key_nested_too_deep_to_parse_is_a_corrupt_record(tmp_path, record_files):
    deep = '{"key": ' + "[" * 200_000 + "]" * 200_000 + "}\n"
    status, err, out = resume_with_second_line(tmp_path, record_files["raag"], deep)
    assert status == 1
    assert err.startswith(f"error: corrupt census record at {out}:2: "), err


def test_a_witness_nested_too_deep_to_read_is_a_corrupt_record(tmp_path, record_files):
    lines = record_files["raag"]
    line = next(k for k, text in enumerate(lines) if k and '"status": "INCOHERENT"' in text)
    rec = json.loads(lines[line])
    for _ in range(700):
        rec["verdict"]["witness"] = {
            "kind": "incoherent_factor", "vertices": [], "inner": rec["verdict"]["witness"]
        }
    rest = lines[:line] + lines[line + 1:]
    status, err, out = resume_with_second_line(tmp_path, rest, json.dumps(rec) + "\n")
    assert status == 1
    assert err.startswith(f"error: corrupt census record at {out}:2: RecursionError: "), err
