"""Command-line interface.

Every subcommand takes its input either as a raw observation CSV
(``--input``) or as a pre-computed correlation matrix CSV (``--corr``).
``report``, ``scree``, ``pca`` and ``simulate`` write files into the output
directory (``--out``, falling back to the FACPCA_OUT environment variable,
then the current directory); the remaining subcommands print their tables
to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .eigen import eigen_symmetric
from .errors import DataError, FacpcaError, SizeError
from .factors import build_model, full_loadings, simulate, truncate
from .pipeline import pca_modified
from .reporting import (
    CORRELATION_CSV,
    RAW_CSV,
    IngestResult,
    ReportTable,
    RunConfig,
    common_variance_table,
    emit_scree,
    format_number,
    format_pct,
    ingest,
    loading_table,
    matrix_table,
    run_report,
    summary_table,
    write_numeric_csv,
)
from .reporting import _default_output_dir  # flags override the env default
from .retention import half_count, kaiser_count, minvar_count, percentage_count, variance_table
from .stats import CorrelationMatrix, DataMatrix, correlation_matrix, determination_matrix
from .varimax import RotationResult, varimax


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--input", metavar="PATH", help="raw observation CSV (header of labels, numeric rows)")
    source.add_argument("--corr", metavar="PATH", help="correlation matrix CSV (labeled square block)")
    sub.add_argument("--epsilon", type=float, default=0.51,
                     help="minimum explained-variance share per variable, in (0.5, 1] (default 0.51)")
    sub.add_argument("--factors", type=int, default=None,
                     help="fix the number of factors/components instead of the min-variance rule")
    sub.add_argument("--rotate", choices=["varimax", "none"], default="varimax",
                     help="rotation applied to truncated loadings (default varimax)")
    sub.add_argument("--no-kaiser-normalize", dest="kaiser_normalize", action="store_false",
                     help="rotate raw rows instead of unit-length rows")
    sub.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="file format for written reports (default csv)")
    sub.add_argument("--out", metavar="DIR", default=None,
                     help="output directory (default: $FACPCA_OUT, else current directory)")
    sub.add_argument("--seed", type=int, default=0, help="random seed for simulation")
    sub.add_argument("--percent", type=float, default=80.0,
                     help="threshold for the explained-variance criterion (default 80)")
    sub.add_argument("--draws", type=int, default=1000,
                     help="number of simulated observations (simulate only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facpca",
        description="Principal component / factor analysis with a per-variable variance retention rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "summary": "print summary statistics of a raw CSV",
        "corr": "print correlation and determination matrices",
        "eigen": "print eigenvalues and explained variance",
        "pca": "run the modified PCA and write component scores",
        "fa": "print factor loadings, communalities and rotation",
        "select": "compare the factor-count criteria",
        "report": "write the full report bundle",
        "scree": "write the scree series (text + SVG)",
        "simulate": "draw observations from the fitted factor model",
    }
    for name, help_text in commands.items():
        command = sub.add_parser(name, help=help_text)
        _add_common_arguments(command)
    return parser


def _out_dir(args) -> Path:
    directory = Path(args.out if args.out is not None else _default_output_dir())
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _load(args) -> IngestResult:
    if args.corr:
        return ingest(args.corr, CORRELATION_CSV)
    if args.input:
        return ingest(args.input, RAW_CSV)
    raise DataError("provide an input via --input or --corr")


def _load_raw(args) -> tuple[DataMatrix, int]:
    if args.input is None:
        raise DataError("this subcommand needs raw observations (--input)")
    result = ingest(args.input, RAW_CSV)
    return result.data, result.dropped_rows


def _correlation_from(result: IngestResult) -> CorrelationMatrix:
    if isinstance(result.data, DataMatrix):
        return correlation_matrix(result.data)
    return result.data


def _print_table(title: str, table: ReportTable) -> None:
    print(f"# {title}")
    columns = [table.header] + table.rows
    widths = [max(len(str(row[i])) for row in columns) for i in range(len(table.header))]
    for row in columns:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    print()


def _warn_if_unconverged(rotation: RotationResult) -> None:
    if not rotation.converged:
        print(
            f"warning: varimax stopped after {rotation.sweeps_used} sweeps without converging",
            file=sys.stderr,
        )


def _cmd_summary(args) -> int:
    data, dropped = _load_raw(args)
    if dropped:
        print(f"dropped {dropped} row(s) with missing values")
    _print_table("summary_statistics", summary_table(data))
    return 0


def _cmd_corr(args) -> int:
    corr = _correlation_from(_load(args))
    _print_table("correlation_matrix", matrix_table(corr.labels, corr.entries, format_number))
    _print_table(
        "determination_matrix_pct",
        matrix_table(corr.labels, determination_matrix(corr), format_pct),
    )
    return 0


def _eigen_of(args):
    corr = _correlation_from(_load(args))
    return corr, eigen_symmetric(corr.entries, correlation_input=True)


def _cmd_eigen(args) -> int:
    _, eig = _eigen_of(args)
    table = variance_table(eig.eigenvalues)
    _print_table(
        "explained_variance",
        ReportTable(
            ["component", "eigenvalue", "cumulative_eigenvalue", "pct", "cumulative_pct"],
            [
                [
                    str(i + 1),
                    format_number(table.eigenvalue[i]),
                    format_number(table.cumulative_eigenvalue[i]),
                    f"{table.pct[i]:.2f}",
                    f"{table.cumulative_pct[i]:.2f}",
                ]
                for i in range(len(table.eigenvalue))
            ],
        ),
    )
    return 0


def _retention_table(report) -> ReportTable:
    n = len(report.min_var)
    return ReportTable(
        ["", *(str(i + 1) for i in range(n))],
        [
            ["EigVal", *(format_pct(v) for v in report.eig_pct)],
            ["MinVar", *(format_pct(v) for v in report.min_var)],
            ["AverVar", *(format_pct(v) for v in report.aver_var)],
            ["NrMinVar", *(str(v) for v in report.nr_min_var)],
        ],
    )


def _cmd_select(args) -> int:
    _, eig = _eigen_of(args)
    report = minvar_count(eig, args.epsilon)
    _print_table("retention", _retention_table(report))
    _print_table(
        "criteria_comparison",
        ReportTable(
            ["criterion", "factors"],
            [
                ["kaiser", str(kaiser_count(eig.eigenvalues))],
                ["half_of_variables", str(half_count(eig.size))],
                [
                    f"explained_variance({args.percent:g}%)",
                    str(percentage_count(eig.eigenvalues, args.percent)),
                ],
                [f"min_variance(epsilon={args.epsilon:g})", str(report.chosen)],
            ],
        ),
    )
    print(f"chosen number of factors/components: {report.chosen}")
    return 0


def _factor_count(args, eig) -> int:
    if args.factors is None:
        return minvar_count(eig, args.epsilon).chosen
    if args.factors < 1:
        raise SizeError("factor count override must be at least 1")
    return args.factors


def _cmd_fa(args) -> int:
    corr, eig = _eigen_of(args)
    k = _factor_count(args, eig)
    loadings = full_loadings(eig, corr.labels)
    _print_table("loadings_full", loading_table(loadings, with_communality=False))
    truncated = truncate(loadings, k)
    _print_table(f"loadings_{k}_factors", loading_table(truncated, with_communality=True))
    if args.rotate == "varimax" and k >= 2:
        rotation = varimax(truncated, normalize=args.kaiser_normalize)
        _warn_if_unconverged(rotation)
        _print_table(
            f"loadings_{k}_factors_rotated",
            loading_table(rotation.rotated, with_communality=True),
        )
        _print_table(
            f"common_variances_{k}_factors_rotated",
            common_variance_table(rotation.rotated),
        )
    return 0


def _csv_only(args) -> None:
    if args.format != "csv":
        raise DataError(
            f"{args.command} writes CSV only; --format {args.format} is not supported"
        )


def _cmd_pca(args) -> int:
    _csv_only(args)
    data, dropped = _load_raw(args)
    if dropped:
        print(f"dropped {dropped} row(s) with missing values")
    result = pca_modified(data, args.epsilon)
    out = _out_dir(args)
    k = result.retained
    write_numeric_csv(out / "scores.csv", [f"PC{j + 1}" for j in range(k)], result.scores)
    _print_table("retention", _retention_table(result.report))
    print(f"retained components: {k}")
    print(f"wrote {out / 'scores.csv'}")
    return 0


def _cmd_report(args) -> int:
    if not (args.input or args.corr):
        raise DataError("provide an input via --input or --corr")
    config = RunConfig(
        input_path=args.corr or args.input,
        input_kind=CORRELATION_CSV if args.corr else RAW_CSV,
        epsilon=args.epsilon,
        factor_count_override=args.factors,
        rotate=args.rotate,
        kaiser_normalize=args.kaiser_normalize,
        output_dir=str(args.out) if args.out is not None else _default_output_dir(),
        output_format=args.format,
        percent_threshold=args.percent,
    )
    bundle = run_report(config)
    if bundle.dropped_rows:
        print(f"dropped {bundle.dropped_rows} row(s) with missing values")
    if bundle.rotation is not None:
        _warn_if_unconverged(bundle.rotation)
    chosen = [row for row in bundle["criteria_comparison"].rows if row[0].startswith("min_variance")]
    print(f"wrote {len(bundle)} tables and the scree plot to {config.output_dir}")
    if chosen:
        print(f"number of factors/components ({chosen[0][0]}): {chosen[0][1]}")
    return 0


def _cmd_scree(args) -> int:
    _, eig = _eigen_of(args)
    out = _out_dir(args)
    svg_path, txt_path = emit_scree(eig.eigenvalues, out / "scree.svg")
    print(f"wrote {svg_path} and {txt_path}")
    return 0


def _cmd_simulate(args) -> int:
    _csv_only(args)
    corr, eig = _eigen_of(args)
    loadings = full_loadings(eig, corr.labels)
    k = _factor_count(args, eig)
    model = build_model(truncate(loadings, k))
    drawn = simulate(model, args.draws, args.seed)
    out = _out_dir(args)
    write_numeric_csv(out / "simulated.csv", drawn.labels, drawn.values)
    print(f"wrote {args.draws} draws from the {k}-factor model to {out / 'simulated.csv'}")
    return 0


_HANDLERS = {
    "summary": _cmd_summary,
    "corr": _cmd_corr,
    "eigen": _cmd_eigen,
    "pca": _cmd_pca,
    "fa": _cmd_fa,
    "select": _cmd_select,
    "report": _cmd_report,
    "scree": _cmd_scree,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except FacpcaError as exc:
        print(f"facpca {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"facpca {args.command}: io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
