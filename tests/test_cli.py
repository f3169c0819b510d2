import importlib
import re
import subprocess
import sys

from collections import Counter

import pytest

import facpca.cli
import facpca.pipeline
import facpca.reporting
import facpca.retention
import facpca.stats
from facpca.cli import main
from facpca.datasets import dataset1_corr_path
from facpca.pipeline import Analysis
from facpca.reporting import read_data_csv

import numeric_csv_oracle
from conftest import dense_factor_correlation

FIXTURE = str(dataset1_corr_path())

RAW_SAMPLE = "a,b,c\n1,1,2\n2,3,3\n2,2,1\n5,4,4\n"


@pytest.fixture()
def raw_csv(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text(RAW_SAMPLE, encoding="utf-8")
    return str(path)


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["report", "--corr", FIXTURE, "--epsilon", "0.51", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "min_variance(epsilon=0.51)): 3" in printed
    assert (out / "retention.csv").exists()
    assert (out / "scree.svg").exists()


def test_report_json_format(tmp_path):
    out = tmp_path / "report"
    code = main(["report", "--corr", FIXTURE, "--format", "json", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()


def test_summary_subcommand(raw_csv, capsys):
    assert main(["summary", "--input", raw_csv]) == 0
    printed = capsys.readouterr().out
    assert "summary_statistics" in printed
    assert "Mean" in printed


def test_summary_reports_dropped_rows(tmp_path, capsys):
    path = tmp_path / "raw.csv"
    path.write_text("a,b\n1,2\nbad,3\n4,5\n6,7\n", encoding="utf-8")
    assert main(["summary", "--input", str(path)]) == 0
    assert "dropped 1 row(s)" in capsys.readouterr().out


def test_report_prints_dropped_rows(tmp_path, capsys):
    path = tmp_path / "raw.csv"
    path.write_text(RAW_SAMPLE + "NA,1,1\n", encoding="utf-8")
    assert main(["report", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "dropped 1 row(s) with missing values" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, closing",
    [
        ([], ["number of factors/components (min_variance(epsilon=0.51)): 3"]),
        (["--factors", "1"],
         ["number of factors/components (--factors): 1",
          "rotation skipped (varimax needs at least 2 factors)"]),
        (["--rotate", "none"],
         ["number of factors/components (min_variance(epsilon=0.51)): 3",
          "rotation skipped (--rotate none)"]),
    ],
)
def test_report_names_the_count_used_and_a_skipped_rotation(tmp_path, capsys, flags, closing):
    assert main(["report", "--corr", FIXTURE, *flags, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == closing
    # fa closes its tables with the same note
    assert main(["fa", "--corr", FIXTURE, *flags]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("rotation")] == closing[1:]


def _out_flag(command, out) -> list[str]:
    """``--out out`` for the subcommands that write files, nothing for the others."""
    return ["--out", str(out)] if command in ("report", "simulate") else []


@pytest.mark.parametrize("command", ["fa", "simulate"])
def test_factor_count_below_one_is_rejected(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--corr", FIXTURE, "--factors", "0", *_out_flag(command, out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"facpca {command}: factor count override must be at least 1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fa", "simulate", "report"])
def test_factor_count_above_n_is_rejected(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--corr", FIXTURE, "--factors", "9", *_out_flag(command, out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"facpca {command}: factor count override 9 exceeds the 7 variables\n"
    assert not out.exists()


@pytest.mark.parametrize("percent", ["0", "-5", "100.5", "150"])
@pytest.mark.parametrize("command", ["select", "report"])
def test_percent_outside_range_is_rejected(tmp_path, capsys, command, percent):
    out = tmp_path / "out"
    argv = [command, "--corr", FIXTURE, "--percent", percent, *_out_flag(command, out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"facpca {command}: percent threshold must lie in (0, 100], got {float(percent)}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("source", ["--input", "--corr"])
def test_report_rejects_bad_percent_before_reading(tmp_path, capsys, stage_calls, source):
    argv = ["report", source, str(tmp_path / "missing.csv"), "--percent", "0",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "facpca report: percent threshold must lie in (0, 100], got 0.0\n"
    )
    assert stage_calls == []


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
        ("--draws", "1", "need at least 2 draws, got 1"),
    ],
)
@pytest.mark.parametrize("source", ["--input", "--corr"])
def test_simulate_rejects_bad_settings_before_reading(
    tmp_path, capsys, stage_calls, source, flag, value, message
):
    out = tmp_path / "out"
    argv = ["simulate", source, str(tmp_path / "missing.csv"), flag, value, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"facpca simulate: {message}\n"
    assert stage_calls == []
    assert not out.exists()


@pytest.mark.parametrize("source", ["--input", "--corr"])
@pytest.mark.parametrize("command", ["fa", "simulate"])
def test_epsilon_with_factors_is_rejected_before_reading(
    tmp_path, capsys, stage_calls, command, source
):
    # with --factors fixing the count, fa and simulate never read --epsilon
    out = tmp_path / "out"
    argv = [command, source, str(tmp_path / "missing.csv"), "--factors", "2", "--epsilon", "0.9"]
    assert main([*argv, *_out_flag(command, out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"facpca {command}: --epsilon has no effect with --factors\n"
    assert stage_calls == []
    assert not out.exists()


def test_report_reads_epsilon_with_factors(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["report", "--corr", FIXTURE, "--factors", "4", "--epsilon", "0.6", "--out", str(out)]
    assert main(argv) == 0
    assert "min_variance(epsilon=0.6)" in (out / "criteria_comparison.csv").read_text()


@pytest.mark.parametrize(
    "source, text",
    [("--input", "a,a\n1,2\n3,5\n"), ("--corr", ",a,a\na,1,0.5\na,0.5,1\n")],
)
def test_duplicate_label_names_file_and_label(tmp_path, capsys, source, text):
    path = tmp_path / "dup.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["report", source, str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"facpca report: {path}: duplicate label 'a'\n"


@pytest.mark.parametrize("command", ["report", "fa"])
def test_unconverged_varimax_is_reported(tmp_path, capsys, monkeypatch, command):
    # 8 factors of a dense 40-variable model: the pairwise sweeps alone need over 100
    corr = dense_factor_correlation(1, 40, 10)
    labels = [f"v{i}" for i in range(40)]
    lines = ["," + ",".join(labels)]
    lines += [label + "," + ",".join(repr(float(v)) for v in row) for label, row in zip(labels, corr)]
    path = tmp_path / "corr.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([command, "--corr", str(path), *_out_flag(command, tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(importlib.import_module("facpca.varimax"), "MAX_SWEEPS", 1)
    assert main([command, "--corr", FIXTURE, *_out_flag(command, tmp_path / "weather")]) == 0
    assert capsys.readouterr().err == "warning: varimax stopped after 1 sweeps without converging\n"


STAGES = (
    "read_data_csv",
    "read_correlation_csv",
    "correlation_matrix",
    "eigen_symmetric",
    "full_loadings",
    "variance_table",
    "minvar_count",
    "varimax",
    "standardize",
)


@pytest.fixture()
def stage_calls(monkeypatch):
    """The names of the pipeline stages called where ``Analysis`` calls them, in order.

    ``summarize`` is counted where ``facpca.reporting`` calls it, and
    ``variance_table`` also where ``facpca.retention`` calls it.
    """
    calls = []
    stages = [(facpca.pipeline, name) for name in STAGES]
    extra = [(facpca.reporting, "summarize"), (facpca.retention, "variance_table")]
    for module, name in [*stages, *extra]:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("source", ["--input", "--corr"])
def test_report_runs_each_stage_once(tmp_path, capsys, raw_csv, stage_calls, source):
    path = raw_csv if source == "--input" else FIXTURE
    assert main(["report", source, path, "--factors", "2", "--out", str(tmp_path / "out")]) == 0
    read = "read_data_csv" if source == "--input" else "read_correlation_csv"
    expected = dict.fromkeys(
        (read, "eigen_symmetric", "full_loadings", "variance_table", "minvar_count", "varimax"), 1
    )
    if source == "--input":
        expected.update(correlation_matrix=1, summarize=3)  # one summary per column
    assert Counter(stage_calls) == expected


@pytest.mark.parametrize("source", ["--input", "--corr"])
def test_select_runs_each_stage_once(capsys, raw_csv, stage_calls, source):
    raw = source == "--input"
    assert main(["select", source, raw_csv if raw else FIXTURE]) == 0
    once = ["read_data_csv", "correlation_matrix"] if raw else ["read_correlation_csv"]
    once += ["eigen_symmetric", "full_loadings", "variance_table", "minvar_count"]
    assert Counter(stage_calls) == dict.fromkeys(once, 1)


@pytest.mark.parametrize("source", ["--input", "--corr"])
def test_simulate_runs_no_rotation_or_summary(tmp_path, capsys, raw_csv, stage_calls, source):
    path = raw_csv if source == "--input" else FIXTURE
    assert main(["simulate", source, path, "--draws", "10", "--out", str(tmp_path)]) == 0
    assert "varimax" not in stage_calls and "summarize" not in stage_calls
    assert stage_calls.count("eigen_symmetric") == 1


def test_pca_runs_each_stage_once(tmp_path, capsys, monkeypatch, raw_csv, stage_calls):
    kernel = facpca.stats._unit_columns

    def counted(data):
        stage_calls.append("_unit_columns")
        return kernel(data)

    monkeypatch.setattr(facpca.stats, "_unit_columns", counted)
    assert main(["pca", "--input", raw_csv, "--out", str(tmp_path / "out")]) == 0
    once = ("read_data_csv", "correlation_matrix", "eigen_symmetric", "full_loadings",
            "variance_table", "minvar_count", "standardize",
            "_unit_columns")  # one centering for both users
    assert Counter(stage_calls) == dict.fromkeys(once, 1)


@pytest.mark.parametrize("source", ["--input", "--corr"])
def test_corr_runs_no_decomposition(capsys, raw_csv, stage_calls, source):
    assert main(["corr", source, raw_csv if source == "--input" else FIXTURE]) == 0
    assert "eigen_symmetric" not in stage_calls
    assert len(stage_calls) == (2 if source == "--input" else 1)


def test_corr_subcommand(raw_csv, capsys):
    assert main(["corr", "--input", raw_csv]) == 0
    printed = capsys.readouterr().out
    assert "correlation_matrix" in printed
    assert "determination_matrix_pct" in printed


def test_eigen_subcommand(capsys):
    assert main(["eigen", "--corr", FIXTURE]) == 0
    printed = capsys.readouterr().out
    assert "explained_variance" in printed
    assert "2.2899" in printed


def test_select_subcommand(capsys):
    assert main(["select", "--corr", FIXTURE]) == 0
    printed = capsys.readouterr().out
    assert "chosen number of factors/components: 3" in printed
    assert "NrMinVar" in printed


def test_fa_subcommand_with_rotation(capsys):
    assert main(["fa", "--corr", FIXTURE, "--factors", "4", "--rotate", "varimax"]) == 0
    printed = capsys.readouterr().out
    assert "loadings_4_factors_rotated" in printed


def test_fa_without_rotation(capsys):
    assert main(["fa", "--corr", FIXTURE, "--factors", "7", "--rotate", "none"]) == 0
    printed = capsys.readouterr().out
    assert "loadings_7_factors" in printed
    assert "rotated" not in printed


def test_pca_subcommand(raw_csv, tmp_path, capsys):
    out = tmp_path / "pca"
    assert main(["pca", "--input", raw_csv, "--out", str(out)]) == 0
    scores = (out / "scores.csv").read_text().splitlines()
    assert scores[0].startswith("PC1")
    assert len(scores) == 5  # header + 4 observations
    assert "retained components:" in capsys.readouterr().out


def _printed_table(printed: str, title: str) -> str:
    return printed.split(f"# {title}\n", 1)[1].split("\n\n", 1)[0]


def test_pca_prints_the_retention_table_of_select(tmp_path, capsys):
    # the last NrMinVar is rounding noise, so a second route to the
    # eigenvalues can print another one
    path = tmp_path / "raw.csv"
    path.write_text("a,b,c\n7,5,5\n3,7,3\n3,8,2\n2,7,6\n0,0,3\n8,4,7\n", encoding="utf-8")
    assert main(["select", "--input", str(path)]) == 0
    selected = _printed_table(capsys.readouterr().out, "retention")
    assert main(["pca", "--input", str(path), "--out", str(tmp_path / "pca")]) == 0
    assert _printed_table(capsys.readouterr().out, "retention") == selected


def test_scree_subcommand(tmp_path, capsys):
    out = tmp_path / "scree"
    assert main(["scree", "--corr", FIXTURE, "--out", str(out)]) == 0
    assert (out / "scree.svg").exists()
    assert (out / "scree.txt").exists()


def test_simulate_subcommand(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--corr", FIXTURE, "--draws", "100", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    drawn, dropped = read_data_csv(out / "simulated.csv")
    assert drawn.values.shape == (100, 7)
    assert drawn.labels == tuple(f"x{i}" for i in range(1, 8))
    assert dropped == 0


def test_simulate_is_deterministic(tmp_path):
    for name in ("one", "two"):
        main(["simulate", "--corr", FIXTURE, "--draws", "50", "--seed", "9",
              "--out", str(tmp_path / name)])
    assert (tmp_path / "one" / "simulated.csv").read_bytes() == (
        tmp_path / "two" / "simulated.csv"
    ).read_bytes()


def _matches_cell_writer(tmp_path, monkeypatch, argv, name) -> bool:
    assert main([*argv, "--out", str(tmp_path / "block")]) == 0
    monkeypatch.setattr(facpca.cli, "write_numeric_csv", numeric_csv_oracle.write_numeric_csv)
    assert main([*argv, "--out", str(tmp_path / "cells")]) == 0
    return (tmp_path / "block" / name).read_bytes() == (tmp_path / "cells" / name).read_bytes()


@pytest.mark.parametrize("seed", ["1", "7"])
def test_simulated_csv_matches_cell_writer(tmp_path, monkeypatch, seed):
    argv = ["simulate", "--corr", FIXTURE, "--draws", "50000", "--seed", seed]
    assert _matches_cell_writer(tmp_path, monkeypatch, argv, "simulated.csv")


def test_scores_csv_matches_cell_writer(tmp_path, monkeypatch):
    sample = tmp_path / "sample"
    assert main(["simulate", "--corr", FIXTURE, "--draws", "5000", "--seed", "3",
                 "--out", str(sample)]) == 0
    argv = ["pca", "--input", str(sample / "simulated.csv")]
    assert _matches_cell_writer(tmp_path, monkeypatch, argv, "scores.csv")


@pytest.mark.parametrize("command", ["simulate", "pca"])
def test_csv_only_subcommands_reject_json(tmp_path, capsys, raw_csv, command):
    source = ["--corr", FIXTURE] if command == "simulate" else ["--input", raw_csv]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([command, *source, "--format", "json", "--out", str(out)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format json" in captured.err
    assert not out.exists()


# The flags each subcommand reads, written out here rather than taken from
# the parser, so that a flag registered on the wrong subcommand fails.
SOURCE = ("--input", "--corr")
READS = {
    "summary": ("--input",),
    "corr": SOURCE,
    "eigen": SOURCE,
    "pca": ("--input", "--epsilon", "--out"),
    "fa": (*SOURCE, "--epsilon", "--factors", "--rotate", "--no-kaiser-normalize"),
    "select": (*SOURCE, "--epsilon", "--percent"),
    "report": (*SOURCE, "--epsilon", "--factors", "--rotate", "--no-kaiser-normalize",
               "--format", "--out", "--percent"),
    "scree": (*SOURCE, "--out"),
    "simulate": (*SOURCE, "--epsilon", "--factors", "--out", "--seed", "--draws"),
}
FLAG_VALUES = {
    "--input": ["{raw}"], "--corr": [FIXTURE], "--epsilon": ["0.6"], "--factors": ["2"],
    "--rotate": ["none"], "--no-kaiser-normalize": [], "--format": ["csv"], "--out": ["{out}"],
    "--percent": ["70"], "--seed": ["1"], "--draws": ["5"],
}
UNREAD = [
    (command, flag) for command, reads in READS.items() for flag in FLAG_VALUES if flag not in reads
]


def _argv(flag, raw_csv, out) -> list[str]:
    return [flag, *(value.format(raw=raw_csv, out=out) for value in FLAG_VALUES[flag])]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, raw_csv, command, flag):
    out = tmp_path / "out"
    source = _argv("--input" if "--corr" not in READS[command] else "--corr", raw_csv, out)
    writes = ["--out", str(out)] if "--out" in READS[command] else []
    with pytest.raises(SystemExit) as excinfo:
        main([command, *source, *_argv(flag, raw_csv, out), *writes])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_every_flag_the_subcommand_reads_is_accepted(tmp_path, capsys, raw_csv, command):
    # each flag alone, since --rotate none refuses --no-kaiser-normalize
    reads = READS[command]
    source = _argv("--corr" if "--corr" in reads else "--input", raw_csv, None)
    writes = _argv("--out", raw_csv, tmp_path / "out") if "--out" in reads else []
    for flag in reads:
        argv = [*([] if flag in SOURCE else source), *_argv(flag, raw_csv, tmp_path / "out")]
        assert main([command, *argv, *(writes if flag != "--out" else [])]) == 0, flag


@pytest.mark.parametrize("command", sorted(READS))
def test_every_subcommand_on_raw_input_prints_dropped_rows(tmp_path, capsys, command):
    path = tmp_path / "raw.csv"
    path.write_text(RAW_SAMPLE + "NA,1,1\n,2,2\n", encoding="utf-8")
    writes = ["--out", str(tmp_path / "out")] if "--out" in READS[command] else []
    assert main([command, "--input", str(path), *writes]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("dropped 2 row(s) with missing values\n")
    assert printed.count("dropped") == 1


@pytest.mark.parametrize("command", ["fa", "report"])
def test_kaiser_normalization_without_rotation_is_rejected(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--corr", FIXTURE, "--rotate", "none", "--no-kaiser-normalize"]
    assert main([*argv, *_out_flag(command, out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"facpca {command}: kaiser_normalize=False has no effect with rotate='none'\n"
    )
    assert not out.exists()


# the flags that set an Analysis field, by the field they set
ANALYSIS_FLAGS = {"--epsilon": "epsilon", "--factors": "factors", "--rotate": "rotate",
                  "--no-kaiser-normalize": "kaiser_normalize", "--percent": "percent"}


def _help_entries(capsys, command) -> dict[str, str]:
    """Each option of the subcommand's --help and its help text, whitespace collapsed."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    options = " ".join(capsys.readouterr().out.split("options:")[1].split())
    return {entry.split()[0]: entry for entry in re.split(r" (?=--[a-z])", options)}


@pytest.mark.parametrize("command", sorted(READS))
def test_help_defaults_are_the_analysis_defaults(capsys, command):
    entries = _help_entries(capsys, command)
    for flag in set(entries) & set(ANALYSIS_FLAGS):
        default = getattr(Analysis, ANALYSIS_FLAGS[flag])
        named = re.findall(r"\(default ([^)]*)\)", entries[flag])
        if default is None or default is True:  # the unset count and the switch name none
            assert named == [], flag
        else:
            assert named == [default if isinstance(default, str) else f"{default:g}"], flag


@pytest.mark.parametrize("command", sorted(READS))
def test_analysis_flags_not_given_stay_out_of_the_namespace(raw_csv, command):
    args = facpca.cli.build_parser().parse_args([command, "--input", raw_csv])
    assert not set(vars(args)) & set(ANALYSIS_FLAGS.values())


def test_missing_input_fails_with_stderr(capsys):
    code = main(["eigen"])
    assert code == 1
    err = capsys.readouterr().err
    assert "facpca eigen" in err


def test_missing_file_fails(tmp_path, capsys):
    code = main(["report", "--corr", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_degenerate_column_fails_by_name(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("a,b\n1,3\n2,3\n5,3\n", encoding="utf-8")
    code = main(["pca", "--input", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "facpca pca: column 'b' is constant\n"


def test_input_and_corr_are_mutually_exclusive(raw_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(["eigen", "--input", raw_csv, "--corr", FIXTURE])
    assert excinfo.value.code == 2


def test_out_env_var_is_honored(tmp_path, raw_csv, monkeypatch, capsys):
    target = tmp_path / "envdir"
    monkeypatch.setenv("FACPCA_OUT", str(target))
    assert main(["pca", "--input", raw_csv]) == 0
    assert (target / "scores.csv").exists()


def test_report_out_defaults_to_env_then_cwd(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACPCA_OUT", str(tmp_path / "fromenv"))
    assert main(["report", "--corr", FIXTURE]) == 0
    assert f"to {tmp_path / 'fromenv'}\n" in capsys.readouterr().out
    assert (tmp_path / "fromenv" / "retention.csv").exists()
    monkeypatch.delenv("FACPCA_OUT")
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--corr", FIXTURE]) == 0
    assert "scree plot to .\n" in capsys.readouterr().out
    assert (tmp_path / "retention.csv").exists()


def test_raw_only_subcommands_without_input(capsys):
    for command in ("summary", "pca"):
        assert main([command]) == 1
        assert capsys.readouterr().err == (
            f"facpca {command}: this subcommand needs raw observations (--input)\n"
        )


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "facpca.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for command in ("summary", "corr", "eigen", "pca", "fa", "select", "report",
                    "scree", "simulate"):
        assert command in result.stdout
