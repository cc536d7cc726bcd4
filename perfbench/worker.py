"""Runs one workload in a fresh interpreter and prints one JSON object.

Times are CPU seconds of this process and its reaped children (see
cpu_clock), so time the host steals from the virtual CPU does not count.

Modes:
  setup  build the inputs and report the CPU time spent since the process
         started.
  timed  a closed loop (one worker, one request in flight) over the seeded
         inputs for --seconds of wall time, wrapping around to the start when
         they run out.  FIRST_REPORT_PROBES times, spread evenly over the
         loop, it pauses to time one call to a first report.
  fixed  the first --reports reports of the seeded inputs, optionally traced.

Usage: python3 perfbench/worker.py --workload grid --seed 1 --mode timed --seconds 24
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, process_time

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import STAGES  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

from weilpoly import engine  # noqa: E402
from weilpoly.intpoly import IntPoly  # noqa: E402

FIRST_VERIFY = IntPoly((25, 5, 1, 1, 1))  # t^4 + t^3 + t^2 + 5t + 25 over F_5
# first_report_ms is the median of this many calls spread over the timed loop, so
# that it sees the same machine as the loop does; the loop is extended by their time
FIRST_REPORT_PROBES = 12


def cpu_clock() -> float:
    """CPU seconds used by this process and by the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def clear_caches() -> None:
    """Empty every lru_cache in the package, so a pass starts as cold as a CLI run."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("weilpoly"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def chunk_range(w, chunk: tuple[int, int, int, int]) -> engine.SearchRange:
    """The search range of one (rho, b, r, q) chunk; r stays implicit (least
    primitive root) when the workload leaves it so."""
    rho, b, r, q = chunk
    return engine.SearchRange(rhos=(rho,), bs=(b,), rs=w.rs and (r,), q_min=q, q_max=q)


def stream(w, inputs, options):
    """Endless ("report", record, report) events over the inputs, with
    ("call", (chunk, tuple keys), None) after each completed search call and
    ("pass", None, None) each time the inputs run out."""
    while True:
        for item in inputs:
            if w.is_search:
                keys = []
                try:
                    for rep in engine.search(chunk_range(w, item), options):
                        tup = rep.tuple.as_dict()
                        keys.append(checks.tuple_key(tup))
                        yield "report", (tup, checks.verdict(rep), rep.max_modulus_deviation), rep
                except Exception as exc:  # a failure is data: it counts against failed
                    yield "report", (None, repr(exc), None), None
                    continue
                yield "call", (item, keys), None
            else:
                idx, coeffs, q, family = item
                try:
                    rep = engine.classify((coeffs, q), options)
                except Exception as exc:  # a failure is data: it counts against failed
                    yield "report", (idx, repr(exc), family), None
                    continue
                yield "report", (idx, checks.verdict(rep), family), rep
        yield "pass", None, None
        clear_caches()


def drive(w, inputs, options, seconds: float | None, reports: int | None) -> dict:
    """Consume reports until `seconds` of wall time have passed or `reports`
    were made; every time reported is CPU time.  A timed run also probes
    first_report_ms, outside the loop's own timings."""
    records, calls, gaps, probes = [], [], [], []
    first_pass = None  # reports in the first full pass over the inputs
    stage_ms = dict.fromkeys(STAGES, 0.0)
    paused = 0.0  # CPU seconds spent in probes
    if seconds is not None:
        deadline = monotonic() + seconds
        next_probe = monotonic() + seconds / (2 * FIRST_REPORT_PROBES)
    start = last = cpu_clock()
    for kind, record, rep in stream(w, inputs, options):
        now = cpu_clock()
        if kind == "call":
            calls.append(record)
            continue
        if kind == "pass":
            first_pass = first_pass or len(records)
            continue
        gaps.append((now - last) * 1000.0)
        last = now
        records.append(record)
        if rep is not None:
            for k, v in rep.timings_ms.items():
                if k in stage_ms:
                    stage_ms[k] += v
        if reports is not None:
            if len(records) >= reports:
                break
            continue
        wall = monotonic()
        if wall >= next_probe and len(probes) < FIRST_REPORT_PROBES:
            t0 = cpu_clock()
            first_report(w, options)
            last = cpu_clock()
            probes.append((last - t0) * 1000.0)
            paused += last - t0
            next_probe += seconds / FIRST_REPORT_PROBES
            deadline += monotonic() - wall
        elif wall >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = last - start - paused

    if w.is_search:
        failed = checks.check_search(records, calls, checks.load_reference(w.name), w.numeric)
    else:
        failed = checks.check_verify(records, checks.load_reference(w.name))
    verdicts = [r[1] for r in records]
    made = reached = 0
    for v in verdicts[:first_pass]:  # one full pass when there was one, so the share repeats exactly
        if isinstance(v, list):
            m, r = checks.certificates(v)
            made, reached = made + m, reached + r
    abs_reached = [v for v in verdicts if isinstance(v, list) and v[3] != "not_evaluated"]
    return {
        "attempted": len(records),
        "failed": failed,
        "elapsed_s": elapsed,
        "first_report_ms": statistics.median(probes) if probes else None,
        "first_report_calls": len(probes),
        "gaps_ms": gaps,
        "peak_rss_mb": peak_rss_mb,
        "certified_frac": made / reached if reached else 0.0,
        "abs_certified": sum(v[3] in checks.CERTIFIED for v in abs_reached),
        "abs_reached": len(abs_reached),
        "stage_ms": {k: v / max(len(records), 1) for k, v in stage_ms.items()},
        "verdicts": verdicts if reports is not None else None,
    }


def first_report(w, options) -> None:
    """Call search on the whole grid and take its first report; for
    verify_raw, classify the README's `verify` example."""
    if w.is_search:
        it = engine.search(engine.SearchRange(rhos=w.rhos, bs=w.bs, rs=w.rs, q_min=4, q_max=w.q_max), options)
        next(it)
        it.close()
    else:
        engine.classify((FIRST_VERIFY, 5), options)


def trace_metrics(tr: tracing.Tracer) -> dict:
    summary = tr.summary()
    out = {}
    for name in tracing.SPAN_NAMES:
        calls, self_ms = summary[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = self_ms
    out["intpoly.IntPoly.mul.coeff_products"] = tr.counts["intpoly.IntPoly.mul.work"]
    cert_calls = summary["engine.modular_irreducibility_certificate"][0]
    tried = tr.children_of("engine.modular_irreducibility_certificate", "modpoly.is_irreducible_mod")
    out["modpoly.primes_per_raw_certificate"] = tried / cert_calls if cert_calls else 0.0
    numeric_calls = summary["analysis.numeric_roots"][0]
    out["analysis.numeric_roots.attempts_per_call"] = (
        tr.counts["mpmath.polyroots"] / numeric_calls if numeric_calls else 0.0
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--reports", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    inputs = build_inputs(w, args.seed)
    if not w.is_search:
        inputs = [(idx, IntPoly(c), q, fam) for idx, c, q, fam in inputs]
    options = engine.ClassifyOptions(with_numeric=w.numeric)

    if args.mode == "setup":
        print(json.dumps({"setup_s": cpu_clock()}))
        return 0
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    if args.mode == "timed":
        out = drive(w, inputs, options, seconds=args.seconds, reports=None)
    else:
        out = drive(w, inputs, options, seconds=None, reports=args.reports)
    if tr is not None:
        out["trace"] = trace_metrics(tr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
