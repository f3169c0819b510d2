"""Closed loop over one workload, run by ``run.py`` in a process of its own.

One client issues in-process ``facpca.cli.main(argv)`` calls, each after
the previous one has returned, with stdout and stderr captured.  Rounds
run every operation of the plan once, so each input is measured equally
often.  With tracing on, untraced and traced rounds alternate, and only
the traced rounds feed the per-layer metrics.

Usage: python3 bench/loop.py PLAN.json RESULT.json SPANS.jsonl --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate
import oracles
from spans import CALLER_MODULES, SpanRecorder, self_times

import facpca.cli

TABLE_BUILDERS = (
    "reporting.summary_table",
    "reporting.matrix_table",
    "reporting.loading_table",
    "reporting.common_variance_table",
    "reporting.cumulative_table",
)


def run_op(workload: str, op: dict, out: Path, verify: bool = True) -> dict:
    """One timed CLI call, then (untimed) its exit check, oracle, digest and size.

    The machine-speed reference task is timed just before and just after the
    call, and the call's scaled time is its wall time at the reference speed;
    see calibrate.py.

    ``verify=False`` skips the oracle; the caller then compares the digest
    with that of an earlier, verified run of the same input instead.
    """
    out.mkdir(parents=True)
    captured = io.StringIO()
    gc.collect()
    before = calibrate.reference_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = facpca.cli.main([*op["argv"], "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    reference = (before + calibrate.reference_seconds()) / 2.0
    if code != 0:
        problems = [f"exit {code!r}: {captured.getvalue()[-400:]}"]
    elif verify:
        problems = oracles.check(workload, out, op["expect"])
    else:
        problems = []
    files = sorted(path for path in out.rglob("*") if path.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    size = sum(path.stat().st_size for path in files)
    shutil.rmtree(out)
    return {
        "seconds": seconds,
        "scaled": seconds * calibrate.speed_factor(reference),
        "reference": reference,
        "problems": problems,
        "digest": digest.hexdigest(),
        "bytes": size,
    }


def run_loop(workload: str, plan: list[dict], seconds: float, trace: bool, work: Path):
    """Run whole rounds for about ``seconds`` of measured op time.

    Returns the op records and the recorder holding the traced spans.
    """
    recorder = SpanRecorder()
    callers = [importlib.import_module(name) for name in CALLER_MODULES]
    ops: list[dict] = []
    verified: dict[int, str] = {}  # plan index -> digest of an output the oracle accepted

    def run_round(traced: bool) -> float:
        if traced:
            recorder.instrument(callers)
        try:
            for index, op in enumerate(plan):
                recorder.op_id = len(ops)
                first_span = len(recorder.spans)
                record = run_op(workload, op, work / f"op{len(ops)}", index not in verified)
                record.update(index=index, traced=traced)
                if traced and "rows_dropped" in op["expect"]:
                    dropped = sum(
                        span.counts.get("rows_dropped", 0) for span in recorder.spans[first_span:]
                    )
                    if dropped != op["expect"]["rows_dropped"]:
                        record["problems"].append(
                            f"dropped {dropped} rows, the generator corrupted {op['expect']['rows_dropped']}"
                        )
                if index not in verified:
                    if not record["problems"]:
                        verified[index] = record["digest"]
                elif record["digest"] != verified[index]:
                    record["problems"].append("output bytes differ from an earlier run of this input")
                ops.append(record)
        finally:
            recorder.restore()
        return sum(record["seconds"] for record in ops[-len(plan):])

    round_seconds = run_round(False)
    if trace:
        pairs = max(1, round(seconds / (2 * round_seconds)))
        schedule = [True] + [False, True] * (pairs - 1)
    else:
        schedule = [False] * (max(2, round(seconds / round_seconds)) - 1)
    for traced in schedule:
        run_round(traced)
    return ops, recorder


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(ops: list[dict], recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics from the traced rounds: medians over traced ops.

    Span times are scaled by their op's machine-speed factor, like op times.
    """
    by_op = defaultdict(list)
    for span in recorder.spans:
        by_op[span.op_id].append(span)
    busy, own, counts = [], [], []
    for op_id, spans in by_op.items():
        selfs = self_times(spans)
        factor = ops[op_id]["scaled"] / ops[op_id]["seconds"]
        op_busy, op_self, op_counts = defaultdict(float), defaultdict(float), defaultdict(list)
        for span in spans:
            op_busy[span.name] += span.duration * factor
            op_self[span.name] += selfs[span.span_id] * factor
            for key, value in span.counts.items():
                op_counts[f"{span.name}.{key}"].append(value)
        busy.append(op_busy)
        own.append(op_self)
        counts.append(op_counts)

    def per_op(table, name):
        return _median([entry.get(name, 0.0) for entry in table])

    def count_sum(key):
        return sum(sum(entry.get(key, [])) for entry in counts)

    cells = count_sum("reporting.read_data_csv.cells")
    read_busy = sum(entry.get("reporting.read_data_csv", 0.0) for entry in busy)
    varimax_calls = sum(len(entry.get("varimax.varimax.converged", [])) for entry in counts)
    traced = [op["scaled"] for op in ops if op["traced"]]
    untraced = [op["scaled"] for op in ops if not op["traced"]]
    return {
        "trace.op_s_p50": _median(traced),
        "trace.overhead_s": _median(traced) - _median(untraced),
        "cli.main.self_s": per_op(own, "cli.main"),
        "cli.bytes_written": _median([op["bytes"] for op in ops]),
        "reporting.read_data_csv.busy_s": per_op(busy, "reporting.read_data_csv"),
        "reporting.read_data_csv.cells_per_s": cells / read_busy if read_busy else 0.0,
        "reporting.rows_dropped": _median(
            [sum(entry.get("reporting.read_data_csv.rows_dropped", [])) for entry in counts]
        ),
        "reporting.read_correlation_csv.busy_s": per_op(busy, "reporting.read_correlation_csv"),
        "reporting.tables.busy_s": _median(
            [sum(entry.get(name, 0.0) for name in TABLE_BUILDERS) for entry in busy]
        ),
        "reporting.run_report.self_s": per_op(own, "reporting.run_report"),
        "reporting.emit_scree.busy_s": per_op(busy, "reporting.emit_scree"),
        "stats.summarize.busy_s": per_op(busy, "stats.summarize"),
        "stats.correlation_matrix.busy_s": per_op(busy, "stats.correlation_matrix"),
        "eigen.eigen_symmetric.busy_s": per_op(busy, "eigen.eigen_symmetric"),
        "eigen.n": _median([max(entry.get("eigen.eigen_symmetric.n", [0])) for entry in counts]),
        "varimax.varimax.busy_s": per_op(busy, "varimax.varimax"),
        "varimax.sweeps": _median([sum(entry.get("varimax.varimax.sweeps", [])) for entry in counts]),
        "varimax.converged_ratio": (
            count_sum("varimax.varimax.converged") / varimax_calls if varimax_calls else 0.0
        ),
        "retention.minvar_count.busy_s": per_op(busy, "retention.minvar_count"),
        "factors.full_loadings.busy_s": per_op(busy, "factors.full_loadings"),
        "factors.simulate.busy_s": per_op(busy, "factors.simulate"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("spans", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    plan_file = json.loads(args.plan.read_text(encoding="utf-8"))
    workload, plan = plan_file["workload"], plan_file["ops"]
    work = args.result.parent / "out"
    ops, recorder = run_loop(workload, plan, args.seconds, bool(args.trace), work)
    problems = [problem for op in ops for problem in op["problems"]]
    untraced = [op for op in ops if not op["traced"]]
    scaled = [op["scaled"] for op in untraced]
    result = {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "problems": problems[:5],
        "op_seconds": scaled,
        "wall_op_s_p50": statistics.median(op["seconds"] for op in untraced),
        "reference_s": statistics.median(op["reference"] for op in ops),
        "metrics": {
            "op_s_p50": statistics.median(scaled),
            "ops_per_s": len(scaled) / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if args.trace:
        result["metrics"] = layer_metrics(ops, recorder)
        recorder.write(args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
