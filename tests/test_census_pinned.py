"""Census output pinned byte for byte.

Each sweep below runs through the command line, serially and with
``--workers 2``, once with the text table and once with ``--format
json``, each time writing a fresh ``--out`` record file.  The SHA-256 of
every stdout and record file must equal the pinned value, which was
produced by the labeled-graph enumerator that canonicalized every
labeled graph of the sweep.  So a census that reaches the same classes
another way must still count, order, classify and record them exactly
as that enumerator did.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from graphcoherence.cli import main

# sweep -> (text stdout, json stdout, record file), as SHA-256 hex digests.
PINNED = {
    "coxeter-3to4-e4-234": (
        "8e8b59deee75b2cbd2ce497587aa1a991239080f21a47581154934077adaa2ae",
        "c9db223b05580e61625e1cf91a27d854a062252ba52787c80554fe6b6f4e0260",
        "59613f538f64f48059174128057223fa40793d39bf0e8f36bfe56a6976e1e550",
    ),
    "coxeter-4-2345": (
        "72123317f5e4b6c74033173390570c11af728e5898f46f907920348b8bf392e5",
        "67d41ca6d0651e60ca929441bf310ac4b097650fabeba8732052a2f13048af18",
        "b8b5a9047cedb0cccfd65ecd8f47c9f9b97e79089895b408a6cf0069fea1e315",
    ),
    "coxeter-4-53": (
        "d969ec4fae8f9e9aa4c0a013620f75b62a6304d2b4e7d22adf5f123390045ed2",
        "f91a5e4369946a2468a4c00d2dfb89491d63632186cc22a29d35b24a14adead7",
        "02fcf7b665c0b701f99ff45eb82cd1c01d7dab392cfaa638505caa6455b5a4fa",
    ),
    "raag-5": (
        "27e4bb14501a4bbb44a6085ffc8738b8d6f0f3e5c885be494e9d05a652482c3e",
        "a15677775548536a606e4b96c022b23cbabe26d38bc6d2ae51a172cd4d214390",
        "97c70d3578703b65cb710e5a86e069f374bb3dfd93fd8547ca73947b6fb83b7d",
    ),
    "racg-6": (
        "3834294a80903d0ef1fabfc59bc9667cf261312e64ddacbef1b5689d3de90f63",
        "08cb2c4e8ac219f586bf9f38830f7de7a104b20e413599bacb9f5d244ff92b9a",
        "c69571cd572c8d599ec37afc42b7d9f8134a20667473e979becdbef3e2c96d3a",
    ),
}

SWEEPS = {
    "racg-6": ["--flavor", "racg", "--max-vertices", "6"],
    "raag-5": ["--flavor", "raag", "--max-vertices", "5"],
    "coxeter-4-2345": ["--flavor", "coxeter", "--max-vertices", "4", "--labels", "2,3,4,5"],
    "coxeter-4-53": ["--flavor", "coxeter", "--max-vertices", "4", "--labels", "5,3"],
    "coxeter-3to4-e4-234": [
        "--flavor", "coxeter", "--min-vertices", "3", "--max-vertices", "4",
        "--max-edges", "4", "--labels", "2,3,4",
    ],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def census_digests(args: list[str], tmp_path, workers: int) -> tuple[str, str, str]:
    """The digests of the text stdout, the json stdout and the record
    file of fresh runs of ``census args``."""
    digests = []
    records = []
    for fmt in ("text", "json"):
        out = tmp_path / f"{fmt}-{workers}.jsonl"
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(
                ["census", *args, "--format", fmt, "--out", str(out), "--workers", str(workers)]
            )
        assert code == 0
        digests.append(_sha256(stdout.getvalue().encode()))
        records.append(out.read_bytes())
    assert records[0] == records[1]
    return digests[0], digests[1], _sha256(records[0])


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers-2"])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_census_output_is_pinned(sweep, workers, tmp_path):
    assert census_digests(SWEEPS[sweep], tmp_path, workers) == PINNED[sweep]

