"""Byte-for-byte regression of the report bundle and the printed tables.

The files under ``tests/golden`` are the outputs of ``report`` and of the
printing subcommands on the bundled weather fixture (written with numpy
2.4 on x86-64).  A refactor must reproduce them exactly; regenerate them
only for a change that is meant to alter an output.
"""

from pathlib import Path

import pytest

from facpca.cli import main
from facpca.datasets import dataset1_corr_path

GOLDEN = Path(__file__).parent / "golden"
FIXTURE = str(dataset1_corr_path())

REPORTS = {
    "report_csv": [],
    "report_json": ["--format", "json"],
    "report_factors4_raw_rows": ["--factors", "4", "--no-kaiser-normalize"],
}

PRINTED = {
    "corr": ["corr"],
    "eigen": ["eigen"],
    "select": ["select"],
    "fa_factors4": ["fa", "--factors", "4"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bundle_matches_golden(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(["report", "--corr", FIXTURE, *REPORTS[name], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    expected = sorted((GOLDEN / name).iterdir())
    assert sorted(path.name for path in out.iterdir()) == [path.name for path in expected]
    for path in expected:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_printed_tables_match_golden(capsys, name):
    command, *flags = PRINTED[name]
    assert main([command, "--corr", FIXTURE, *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "stdout" / f"{name}.txt").read_text(encoding="utf-8")
    assert captured.err == ""
