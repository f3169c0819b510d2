"""Steadiness procedure: repeat ``run.py`` over seeds and summarise the spread.

    python3 bench/steady.py --runs 10 --first-seed 1 [--trace 0]
                            [--record bench/results/NAME.json --label NAME]
                            [--compare bench/results/OTHER.json]

For every workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed
(first-seed, first-seed + 1, ...) for ``run_seconds`` and prints, for each
metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median.  An end-to-end metric is steady when that share is below a
third of its bound in ``BENCHMARK.json``.  It also prints the highest
per-op percentile with at least ten pooled ops beyond it.  ``--record``
writes the whole summary, with the input sizes and the Python, numpy and
CPU details, as JSON.  ``--compare`` prints how far each median is from
the median of an earlier recorded summary, as a share of the earlier one,
and fails when a metric got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads
from run import ROOT, highest_percentile


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int, details: Path) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--details", str(details)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["op_seconds"] = json.loads(details.read_text(encoding="utf-8"))["op_seconds"]
    details.unlink()
    return result


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "sizes": {
            "raw_report": f"{workloads.RAW_FILES} CSVs x {workloads.RAW_ROWS} rows x "
                          f"{len(workloads.WEATHER_COLUMNS)} columns, {workloads.RAW_BAD_SHARE:.0%} bad rows",
            "wide_report": f"{workloads.WIDE_FILES} correlation matrices, n={workloads.WIDE_N}, "
                           f"{workloads.WIDE_FACTORS}-factor model, {workloads.WIDE_CHOSEN} factors kept",
            "simulate_draws": f"{workloads.SIM_OPS} draw seeds x {workloads.SIM_DRAWS} draws "
                              f"from {workloads.FIXTURE.name}",
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="repeat run.py over seeds and report the spread")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="write the summary here as JSON")
    parser.add_argument("--label", default="", help="free text stored with --record")
    parser.add_argument("--compare", type=Path, help="an earlier --record summary to compare medians with")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.compare.read_text(encoding="utf-8"))["workloads"] if args.compare else {}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {"label": args.label, "seeds": seeds, "seconds": spec["run_seconds"], "trace": args.trace,
               "environment": environment(), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            details = ROOT / ".bench_run" / f"steady-{workload}-{seed}-{os.getpid()}.json"
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace, details))
        pooled = [s for run in runs for s in run["op_seconds"]]
        entry = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "correct": all(run["correct"] for run in runs),
            "op_latency": highest_percentile(pooled),
            "metrics": {},
            "op_seconds": {seed: run["op_seconds"] for seed, run in zip(seeds, runs)},
        }
        print(f"{workload}: {len(runs)} runs, {entry['attempted']} ops, {entry['failed']} failed, "
              f"correct={entry['correct']}; pooled op latency {entry['op_latency']}")
        for name, metric in runs[0]["metrics"].items():
            stats = spread([run["metrics"][name]["value"] for run in runs])
            stats["unit"] = metric["unit"]
            bound = bounds.get(name) if not args.trace else None
            verdict = ""
            if bound is not None:
                ok = stats["spread"] < bound / 3
                steady &= ok
                verdict = f"bound {bound:.2f} {'steady' if ok else 'NOT STEADY'}"
            old = earlier.get(workload, {}).get("metrics", {}).get(name)
            if old and old["median"]:
                stats["shift"] = (stats["median"] - old["median"]) / old["median"]
                worse = stats["shift"] if better.get(name, "lower") == "lower" else -stats["shift"]
                verdict += f"; median {stats['shift']:+.3f} from {args.compare.name}"
                if bound is not None and worse > bound:
                    steady = False
                    verdict += " WORSE THAN BOUND"
            entry["metrics"][name] = stats
            print(f"  {name:40s} median {stats['median']:.6g} {metric['unit']:6s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f} {verdict}")
        summary["workloads"][workload] = entry
        steady &= entry["correct"]
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
