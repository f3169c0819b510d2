"""facpca benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload raw_report --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src``.
The run generates its inputs from ``--seed`` (untimed), measures
``setup_s`` from fresh interpreter launches (``--trace 0`` only), then
runs the closed loop of ``loop.py`` in a child process and checks every
output.  It prints each metric by name with its unit and, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics named in
``BENCHMARK.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 170.0  # the whole run, build included, must end within 180 s
SETUP_LAUNCHES = 9
SETUP_CODE = "import facpca.cli; facpca.cli.build_parser()"
# one client, no helper threads: pin numpy's BLAS pools to the calling thread
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def program_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def _launch(code: str, env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup(env: dict[str, str]) -> float:
    """Median scaled wall time of fresh interpreters that import the CLI and build its parser."""
    _launch(SETUP_CODE, env)  # also writes the bytecode caches
    scaled = []
    for _ in range(SETUP_LAUNCHES):
        bare = _launch("pass", env)
        scaled.append(_launch(SETUP_CODE, env) * calibrate.speed_factor(bare, calibrate.INTERPRETER_S))
    return statistics.median(scaled)


def highest_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1 - pct / 100) >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
            return f"p{pct:g} {value:.4f} s over {len(samples)} ops"
    return f"no percentile has 10 ops beyond it ({len(samples)} ops)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="facpca benchmark, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", type=Path, help="also write per-op times and problems here")
    args = parser.parse_args(argv)
    began = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "facpca" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no facpca source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = program_env()
    scratch = ROOT / ".bench_run"
    work = scratch / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(env)
        plan = workloads.make_plan(args.workload, args.seed, work / "inputs")
        inputs_digest = workloads.digest("".join(op["input_digest"] for op in plan).encode())
        plan_path, result_path = work / "plan.json", work / "result.json"
        plan_path.write_text(json.dumps({"workload": args.workload, "ops": plan}), encoding="utf-8")
        spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
        try:
            subprocess.run(
                [sys.executable, str(ROOT / "bench" / "loop.py"), str(plan_path), str(result_path),
                 str(spans_path), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                env=env, cwd=ROOT, check=True,
                timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)),
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"bench: workload process failed: {exc}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(result["metrics"])
    if setup_s is not None:
        values["setup_s"] = setup_s
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed, failed_ratio {failed / attempted:.4f}")
    print(f"  inputs: {len(plan)} per round, sha256 of their digests {inputs_digest[:16]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  machine: reference task {result['reference_s']:.4f} s (scaled to {calibrate.REFERENCE_S} s); "
          f"unscaled op wall time p50 {result['wall_op_s_p50']:.4f} s")
    if args.trace:
        shares = {
            "reporting.read_data_csv": values["reporting.read_data_csv.busy_s"],
            "eigen.eigen_symmetric + varimax.varimax":
                values["eigen.eigen_symmetric.busy_s"] + values["varimax.varimax.busy_s"],
            "cli.main self": values["cli.main.self_s"],
        }
        print("  share of traced op time: " + ", ".join(
            f"{name} {100 * busy / values['trace.op_s_p50']:.1f}%" for name, busy in shares.items()))
    else:
        print(f"  op latency: {highest_percentile(result['op_seconds'])}")
    if args.details:
        args.details.write_text(json.dumps(result), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
