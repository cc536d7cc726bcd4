"""The weilpoly benchmark.

  python3 perfbench/run.py --workload grid --seed 1 --seconds 24 --trace 0

Workloads: grid, abs_scan, numeric, verify_raw, or "all" to run each in turn.
With --trace 0 it prints the end-to-end metrics: set-up time from SETUP_RUNS
fresh interpreters (median), then first-report latency, throughput,
per-report latency, certification share and peak memory from one fresh
interpreter that runs the workload's closed loop for --seconds.  Times are
the worker's CPU seconds (see worker.cpu_clock).  With
--trace 1 it runs a fixed number of reports twice, untraced and traced, each
in a fresh interpreter, and prints the per-layer metrics.  Every report is
checked for correctness (see checks.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from tracer import STAGES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
TIMEOUT_S = 170  # per worker process


class BenchError(RuntimeError):
    pass


def worker_cmd(workload: str, seed: int, mode: str, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]


def run_worker(cmd: list[str]) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    samples = [run_worker(worker_cmd(workload, seed, "setup")) for _ in range(SETUP_RUNS)]
    out = run_worker(worker_cmd(workload, seed, "timed", "--seconds", str(seconds)))
    gaps = out["gaps_ms"]
    deciles = statistics.quantiles(gaps, n=10)
    print(f"{workload}: {len(gaps)} reports timed, {len(gaps) // 10} beyond p90, "
          f"{SETUP_RUNS} set-ups, {out['first_report_calls']} first-report calls, "
          f"failed_frac {out['failed'] / out['attempted']:.4f}")
    out["metrics"] = {
        "reports_per_s": metric(out["attempted"] / out["elapsed_s"], "1/s"),
        "report_ms_p50": metric(deciles[4], "ms"),
        "report_ms_p90": metric(deciles[8], "ms"),
        "first_report_ms": metric(out["first_report_ms"], "ms"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in samples), "s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        "certified_frac": metric(out["certified_frac"], "ratio"),
    }
    return out


def per_layer(workload: str, seed: int) -> dict:
    n = str(WORKLOADS[workload].trace_reports)
    plain = run_worker(worker_cmd(workload, seed, "fixed", "--reports", n))
    traced = run_worker(worker_cmd(workload, seed, "fixed", "--reports", n, "--trace"))
    mismatched = sum(a != b for a, b in zip(plain["verdicts"], traced["verdicts"]))
    mismatched += abs(len(plain["verdicts"]) - len(traced["verdicts"]))
    print(f"{workload}: {traced['attempted']} reports traced, {mismatched} verdicts differ from the untraced run")
    metrics = {f"engine.{s}.ms": metric(plain["stage_ms"][s], "ms") for s in STAGES}
    abs_reached = plain["abs_reached"]
    metrics["engine.abs_simple.certified_ratio"] = metric(
        plain["abs_certified"] / abs_reached if abs_reached else 0.0, "ratio"
    )
    for name, value in traced["trace"].items():
        unit = "ms" if name.endswith("_ms") else "count" if name.endswith(("calls", "products")) else "ratio"
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_ratio"] = metric(traced["elapsed_s"] / plain["elapsed_s"], "ratio")
    return {
        "attempted": traced["attempted"],
        "failed": max(plain["failed"], traced["failed"]) + mismatched,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="weilpoly benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weilpoly" / "__init__.py").is_file():
        print(f"error: no weilpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = per_layer(name, args.seed)
            else:
                results[name] = end_to_end(name, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": results[names[0]]["metrics"] if len(names) == 1 else
        {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
