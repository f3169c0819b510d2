"""Command-line interface.

Every subcommand renders the stages it needs from one ``Analysis`` of its
input: a raw observation CSV (``--input``) or a correlation matrix CSV
(``--corr``; not for ``summary`` and ``pca``).  Each subcommand registers
only the flags it reads (``_COMMANDS``); any other flag is a usage error.
``report``, ``scree``, ``pca`` and ``simulate`` write files into the output
directory (``--out``, falling back to the FACPCA_OUT environment variable,
then the current directory); the remaining subcommands print their tables
to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DataError, FacpcaError
from .factors import build_model, check_simulation, simulate
from .pipeline import Analysis
from .reporting import (
    ReportTable,
    common_variance_table,
    correlation_tables,
    criteria_table,
    emit_scree,
    explained_variance_table,
    loading_table,
    retention_table,
    run_report,
    summary_table,
    write_numeric_csv,
)
from .varimax import RotationResult

# a flag that sets an Analysis field stays out of the namespace when not given
_FLAGS = {
    "--input": dict(metavar="PATH", help="raw observation CSV (header of labels, numeric rows)"),
    "--corr": dict(metavar="PATH", help="correlation matrix CSV (labeled square block)"),
    "--epsilon": dict(type=float, default=argparse.SUPPRESS,
                      help="minimum explained-variance share per variable, in (0.5, 1]"
                           f" (default {Analysis.epsilon:g})"),
    "--factors": dict(type=int, default=argparse.SUPPRESS,
                      help="fix the number of factors/components instead of the min-variance rule"),
    "--rotate": dict(choices=["varimax", "none"], default=argparse.SUPPRESS,
                     help=f"rotation applied to truncated loadings (default {Analysis.rotate})"),
    "--no-kaiser-normalize": dict(dest="kaiser_normalize", action="store_false",
                                  default=argparse.SUPPRESS,
                                  help="rotate raw rows instead of unit-length rows"),
    "--format": dict(choices=["csv", "json"], default="csv",
                     help="file format of the report (default csv)"),
    "--out": dict(metavar="DIR", help="output directory (default: $FACPCA_OUT, else current directory)"),
    "--percent": dict(type=float, default=argparse.SUPPRESS,
                      help="threshold for the explained-variance criterion"
                           f" (default {Analysis.percent:g})"),
    "--seed": dict(type=int, default=0, help="random seed for simulation"),
    "--draws": dict(type=int, default=1000, help="number of simulated observations"),
}
_SOURCE = ("--input", "--corr")
_ROTATION = ("--factors", "--rotate", "--no-kaiser-normalize")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facpca",
        description="Principal component / factor analysis with a per-variable variance retention rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        # optional, so that a missing input is reported by the subcommand
        source = command.add_mutually_exclusive_group()
        for flag in flags:
            (source if flag in _SOURCE else command).add_argument(flag, **_FLAGS[flag])
        if "--out" in flags:
            command.set_defaults(out=os.environ.get("FACPCA_OUT", "."))
    return parser


def _analysis(args) -> Analysis:
    """The analysis of the subcommand's input, with the settings the subcommand accepts."""
    given = vars(args)
    corr = given.get("corr")
    if corr is None and args.input is None:
        raise DataError(
            "provide an input via --input or --corr"
            if "corr" in given
            else "this subcommand needs raw observations (--input)"
        )
    if args.command in ("fa", "simulate") and "epsilon" in given and "factors" in given:
        raise DataError("--epsilon has no effect with --factors")
    # the namespace holds an Analysis field only when its flag was typed
    return Analysis(
        args.input if corr is None else corr,
        "raw" if corr is None else "corr",
        **{field.name: given[field.name] for field in fields(Analysis) if field.name in given},
    )


def _out_dir(args) -> Path:
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _print_table(title: str, table: ReportTable) -> None:
    print(f"# {title}")
    columns = [table.header] + table.rows
    widths = [max(len(str(row[i])) for row in columns) for i in range(len(table.header))]
    for row in columns:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    print()


def _warn_if_unconverged(rotation: RotationResult | None) -> None:
    if rotation is not None and not rotation.converged:
        print(
            f"warning: varimax stopped after {rotation.sweeps_used} sweeps without converging",
            file=sys.stderr,
        )


def _note_skipped_rotation(analysis: Analysis) -> None:
    if analysis.rotation is None:
        skipped = "--rotate none" if analysis.rotate == "none" else "varimax needs at least 2 factors"
        print(f"rotation skipped ({skipped})")


def _cmd_summary(args, analysis: Analysis) -> None:
    _print_table("summary_statistics", summary_table(analysis.data))


def _cmd_corr(args, analysis: Analysis) -> None:
    correlation, determination = correlation_tables(analysis.corr)
    _print_table("correlation_matrix", correlation)
    _print_table("determination_matrix_pct", determination)


def _cmd_eigen(args, analysis: Analysis) -> None:
    _print_table("explained_variance", explained_variance_table(analysis.variance))


def _cmd_select(args, analysis: Analysis) -> None:
    _print_table("retention", retention_table(analysis.retention, analysis.variance))
    _print_table("criteria_comparison", criteria_table(analysis))
    print(f"chosen number of factors/components: {analysis.retention.chosen}")


def _cmd_fa(args, analysis: Analysis) -> None:
    # taken first, so that a bad --factors fails before anything is printed
    truncated = analysis.truncated
    k = truncated.k
    _print_table("loadings_full", loading_table(analysis.loadings, with_communality=False))
    _print_table(f"loadings_{k}_factors", loading_table(truncated, with_communality=True))
    rotation = analysis.rotation
    if rotation is not None:
        _warn_if_unconverged(rotation)
        rotated = rotation.rotated
        _print_table(f"loadings_{k}_factors_rotated", loading_table(rotated, with_communality=True))
        _print_table(f"common_variances_{k}_factors_rotated", common_variance_table(rotated))
    _note_skipped_rotation(analysis)


def _cmd_pca(args, analysis: Analysis) -> None:
    scores = analysis.scores
    out = _out_dir(args)
    k = scores.shape[1]
    write_numeric_csv(out / "scores.csv", [f"PC{j + 1}" for j in range(k)], scores)
    _print_table("retention", retention_table(analysis.retention, analysis.variance))
    print(f"retained components: {k}")
    print(f"wrote {out / 'scores.csv'}")


def _cmd_report(args, analysis: Analysis) -> None:
    bundle = run_report(analysis, args.out, args.format)
    _warn_if_unconverged(analysis.rotation)
    print(f"wrote {len(bundle)} tables and the scree plot to {args.out}")
    chosen_by = "--factors" if analysis.factors else f"min_variance(epsilon={analysis.epsilon:g})"
    print(f"number of factors/components ({chosen_by}): {analysis.truncated.k}")
    _note_skipped_rotation(analysis)


def _cmd_scree(args, analysis: Analysis) -> None:
    out = _out_dir(args)
    svg_path, txt_path = emit_scree(analysis.eig.eigenvalues, out / "scree.svg")
    print(f"wrote {svg_path} and {txt_path}")


def _cmd_simulate(args, analysis: Analysis) -> None:
    # checked first, so that a bad setting fails before any input is read
    check_simulation(args.draws, args.seed)
    truncated = analysis.truncated
    drawn = simulate(build_model(truncated), args.draws, args.seed)
    out = _out_dir(args)
    write_numeric_csv(out / "simulated.csv", drawn.labels, drawn.values)
    print(f"wrote {args.draws} draws from the {truncated.k}-factor model to {out / 'simulated.csv'}")


_COMMANDS = {
    "summary": (_cmd_summary, "print summary statistics of a raw CSV", ("--input",)),
    "corr": (_cmd_corr, "print correlation and determination matrices", _SOURCE),
    "eigen": (_cmd_eigen, "print eigenvalues and explained variance", _SOURCE),
    "pca": (_cmd_pca, "run the modified PCA and write component scores",
            ("--input", "--epsilon", "--out")),
    "fa": (_cmd_fa, "print factor loadings, communalities and rotation",
           (*_SOURCE, "--epsilon", *_ROTATION)),
    "select": (_cmd_select, "compare the factor-count criteria",
               (*_SOURCE, "--epsilon", "--percent")),
    "report": (_cmd_report, "write the full report bundle",
               (*_SOURCE, "--epsilon", *_ROTATION, "--format", "--out", "--percent")),
    "scree": (_cmd_scree, "write the scree series (text + SVG)", (*_SOURCE, "--out")),
    "simulate": (_cmd_simulate, "draw observations from the fitted factor model",
                 (*_SOURCE, "--epsilon", "--factors", "--out", "--seed", "--draws")),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the analysis reads nothing until the subcommand asks for a stage
        analysis = _analysis(args)
        args.handler(args, analysis)
        if analysis.dropped_rows:
            print(f"dropped {analysis.dropped_rows} row(s) with missing values")
    except FacpcaError as exc:
        print(f"facpca {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"facpca {args.command}: io error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
