"""Byte-for-byte pins of the JSON reports.

Each file under ``tests/golden/`` is the exact output of one command.  A
change that alters a report on purpose regenerates the file with that
command and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from jetstar.cli import main

GOLDEN = Path(__file__).parent / "golden"

REPORTS = {
    "homology.json": ["homology", "--format", "json"],
    "homology-hochschild.json": ["homology", "--hochschild", "--format", "json"],
    "homology-point-hochschild.json": [
        "homology", "--subset", "point", "--hochschild", "--format", "json",
    ],
    "verify-all-seed7-trials2.json": [
        "verify", "--suite", "all", "--seed", "7", "--trials", "2", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_unchanged(name, capsys):
    code = main(REPORTS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
