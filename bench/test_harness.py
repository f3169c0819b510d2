"""Tests of the benchmark harness itself, on inputs small enough to run in seconds."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

import loop
import oracles
import workloads
from spans import CALLER_MODULES, self_times

import facpca.cli
from facpca.reporting import read_data_csv


def raw_op(tmp_path: Path, seed: int = 3, rows: int = 400) -> dict:
    data, bad, kept = workloads.raw_csv(seed, 0, rows=rows)
    path = tmp_path / "raw.csv"
    path.write_bytes(data)
    return {
        "argv": ["report", "--input", str(path)],
        "expect": {"rows_dropped": len(bad), "correlation": np.corrcoef(kept, rowvar=False).tolist()},
    }


def wide_op(tmp_path: Path) -> dict:
    data, matrix = workloads.wide_corr(5, 0, n=12, factors=4)
    path = tmp_path / "corr.csv"
    path.write_bytes(data)
    eigenvalues, chosen, communalities = workloads.minvar_reference(matrix)
    return {
        "argv": ["report", "--corr", str(path)],
        "expect": {"eigenvalues": eigenvalues.tolist(), "chosen": chosen,
                   "communalities": communalities.tolist()},
    }


def sim_op(tmp_path: Path) -> dict:
    (op, *_) = workloads.make_plan("simulate_draws", 5, tmp_path)
    return op


def test_same_seed_gives_same_bytes_and_records_corrupted_rows(tmp_path):
    first, bad, kept = workloads.raw_csv(3, 0, rows=400)
    again, _, _ = workloads.raw_csv(3, 0, rows=400)
    other, _, _ = workloads.raw_csv(4, 0, rows=400)
    assert workloads.digest(first) == workloads.digest(again) != workloads.digest(other)
    assert len(bad) == 4
    path = tmp_path / "raw.csv"
    path.write_bytes(first)
    data, dropped = read_data_csv(path)
    assert dropped == len(bad)
    np.testing.assert_array_equal(data.values, kept)
    wide, _ = workloads.wide_corr(5, 0, n=12, factors=4)
    assert workloads.digest(wide) == workloads.digest(workloads.wide_corr(5, 0, n=12, factors=4)[0])


@pytest.mark.parametrize(
    "workload, make", [("raw_report", raw_op), ("wide_report", wide_op), ("simulate_draws", sim_op)]
)
def test_oracles_accept_correct_outputs(tmp_path, workload, make):
    record = loop.run_op(workload, make(tmp_path), tmp_path / "out")
    assert record["problems"] == []
    assert record["bytes"] > 0


def test_corrupted_output_counts_as_failed_op(tmp_path, monkeypatch):
    real_main = facpca.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        target = Path(argv[argv.index("--out") + 1]) / "correlation_matrix.csv"
        target.write_text(target.read_text().replace("1,", "0.999999,", 1))
        return code

    op = raw_op(tmp_path)
    assert oracles.check("raw_report", tmp_path, op["expect"])  # missing output is a problem
    monkeypatch.setattr(facpca.cli, "main", corrupting_main)
    ops, _ = loop.run_loop("raw_report", [op], 0.0, False, tmp_path / "work")
    assert len(ops) == 2 and all(record["problems"] for record in ops)


def test_simulate_oracle_rejects_missing_draws(tmp_path):
    op = sim_op(tmp_path)
    out = tmp_path / "out"
    assert facpca.cli.main([*op["argv"], "--out", str(out)]) == 0
    assert oracles.check("simulate_draws", out, op["expect"]) == []
    lines = (out / "simulated.csv").read_text().splitlines(keepends=True)
    (out / "simulated.csv").write_text("".join(lines[:-1]))
    assert oracles.check("simulate_draws", out, op["expect"])


def test_spans_nest_within_their_root_and_wrappers_are_restored(tmp_path):
    modules = [importlib.import_module(name) for name in CALLER_MODULES]
    before = [dict(vars(module)) for module in modules]
    ops, recorder = loop.run_loop("raw_report", [raw_op(tmp_path)], 0.0, True, tmp_path / "work")
    assert [record["traced"] for record in ops] == [False, True]
    assert all(not record["problems"] for record in ops)
    for module, saved in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in saved.items())

    names = {span.name for span in recorder.spans}
    assert {"cli.main", "reporting.run_report", "reporting.read_data_csv", "eigen.eigen_symmetric"} <= names
    assert "reporting.format_number" not in names
    own = self_times(recorder.spans)
    (root,) = [span for span in recorder.spans if span.parent_id is None]
    assert root.name == "cli.main"
    for span in recorder.spans:
        assert root.start <= span.start <= span.end <= root.end
        assert -1e-9 <= own[span.span_id] <= root.duration
    assert sum(own.values()) == pytest.approx(root.duration, abs=1e-9)
    metrics = loop.layer_metrics(ops, recorder)
    assert metrics["reporting.rows_dropped"] == 4
    assert metrics["eigen.n"] == 7
