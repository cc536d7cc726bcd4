"""Command-line front end: construct, verify, search, report.

Exit codes: 0 success / verification positive, 1 malformed arguments or
input, or a --numeric oracle that fails its certificate, 2 invalid parameter
tuple, 3 verification negative (the input is not a q-polynomial).
Polynomials are read and written as comma-separated
decimal coefficients, low degree first ("25,5,1,1,1" is t^4+t^3+t^2+5t+25).
search writes its reports to --out (default stdout) and its summary line to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from typing import Iterable

from .engine import (
    CSV_FIELDS,
    MAX_Q,
    REPORT_FIELDS,
    ClassificationReport,
    ClassifyOptions,
    ParamTuple,
    SearchRange,
    classify,
    csv_row,
    search,
)
from .errors import InvalidTuple, NotPrimePower, WeilPolyError
from .intpoly import IntPoly
from .numtheory import is_prime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_TUPLE = 2
EXIT_NEGATIVE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _print_report(rep: ClassificationReport) -> None:
    d = rep.to_json_dict(include_timings=False)
    for key in REPORT_FIELDS:
        if d[key] is not None:
            print(f"{key}: {d[key]}")
    if rep.modulus_witness:
        print(f"modulus_witness: {json.dumps(rep.modulus_witness)}")


def _add_classify_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--numeric", action="store_true",
                     help="also run the numeric root oracle")


def _options_from(args) -> ClassifyOptions:
    return ClassifyOptions(with_numeric=args.numeric)


# the rule each integer flag of construct, and each entry of a search list, obeys
_FLAG_RULES = {
    "rho": (lambda v: v >= 5 and is_prime(v), "a prime >= 5"),
    "b": (lambda v: v >= 1, ">= 1"),
    "r": (is_prime, "prime"),
    "p": (is_prime, "prime"),
    "n": (lambda v: v >= 1, ">= 1"),
    "m": (lambda v: v >= 0, ">= 0"),
}


def _bad_flags(flags: dict[str, Iterable[int]]) -> bool:
    """True, after an error message, if some value breaks its flag's rule."""
    for name, values in flags.items():
        ok, rule = _FLAG_RULES[name]
        bad = [v for v in values if not ok(v)]
        if bad:
            print(f"error: --{name} must be {rule} (got {bad[0]})", file=sys.stderr)
            return True
    return False


def cmd_construct(args) -> int:
    if _bad_flags({name: [getattr(args, name)] for name in _FLAG_RULES}):
        return EXIT_USAGE
    t = ParamTuple(rho=args.rho, b=args.b, r=args.r, p=args.p, n=args.n, m=args.m)
    try:
        rep = classify(t, _options_from(args))
    except InvalidTuple as exc:
        print("invalid tuple; failed preconditions:")
        for c in exc.failures:
            print(f"  - {c.name} ({c.detail})")
        return EXIT_INVALID_TUPLE
    _print_report(rep)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        poly = IntPoly.from_string(args.poly)
    except ValueError as exc:
        print(f"error: bad polynomial: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if poly.degree < 1:
        print("error: polynomial must be nonconstant", file=sys.stderr)
        return EXIT_USAGE
    try:
        rep = classify((poly, args.q), _options_from(args))
    except NotPrimePower:
        print(f"error: q={args.q} is not a prime power", file=sys.stderr)
        return EXIT_USAGE
    _print_report(rep)
    return EXIT_OK if rep.is_q_polynomial else EXIT_NEGATIVE


def _parse_int_list(flag: str, text: str) -> tuple[int, ...]:
    values = tuple(int(x) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError(f"--{flag} has no entries")
    return values


def cmd_search(args) -> int:
    try:
        rhos = _parse_int_list("rho", args.rho)
        bs = _parse_int_list("b", args.b)
        rs = None if args.r == "least" else _parse_int_list("r", args.r)
    except ValueError as exc:
        print(f"error: bad range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if _bad_flags({"rho": rhos, "b": bs, "r": rs or ()}):
        return EXIT_USAGE
    if max(args.q_min, 4) > min(args.q_max, MAX_Q):
        print(f"error: bad range: --q-min {args.q_min} and --q-max {args.q_max} leave no q in [4, {MAX_Q}]",
              file=sys.stderr)
        return EXIT_USAGE
    # a process pool forks all its workers at once, so their number is bounded
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        print(f"error: --workers must be in [1, {cpus}], the CPU count (got {args.workers})", file=sys.stderr)
        return EXIT_USAGE
    rng = SearchRange(
        rhos=rhos, bs=bs, rs=rs, q_min=args.q_min, q_max=args.q_max,
        m_policy=args.m_policy,
    )
    options = _options_from(args)
    include_timings = not args.no_timings
    try:
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot open output: {exc}", file=sys.stderr)
        return EXIT_USAGE

    tally = _Tally()
    try:
        if args.format == "csv":
            writer = csv.writer(out)
            writer.writerow(CSV_FIELDS)
        for rep in search(rng, options, workers=args.workers):
            row = rep.to_json_dict(include_timings)
            if args.format == "csv":
                writer.writerow(csv_row(row))
            else:
                out.write(json.dumps(row) + "\n")
            tally.add(row)
    finally:
        if args.out:
            out.close()
    print(tally.summary(), file=sys.stderr)
    return EXIT_OK


def _row_error(row) -> str | None:
    """What makes a row unfit for cmd_report, or None."""
    if not isinstance(row, dict):
        return "not a report object"
    t = row.get("tuple")
    if t is not None and not (isinstance(t, dict) and all(type(v) is int for v in t.values())):
        return "tuple is neither null nor an object of integers"
    if type(row.get("max_modulus_deviation")) not in (int, float, type(None)):
        return "max_modulus_deviation is neither null nor a number"
    if not isinstance(row.get("absolutely_simple") or "", str):
        return "absolutely_simple is neither null nor a string"
    return None


class _Tally:
    """Running counts over report rows (JSON objects), each row folded in as
    it arrives so that no row is kept: search keeps one for its summary line,
    report one per (rho, b)."""

    def __init__(self):
        self.tuples = self.q_polynomial = self.ordinary = self.simple = self.ll_passed = 0
        self.verdicts = Counter()  # absolutely_simple; a certified no with its witness
        self.max_dev = None

    def add(self, row: dict) -> None:
        self.tuples += 1
        self.q_polynomial += bool(row.get("is_q_polynomial"))
        self.ordinary += row.get("ordinary") is True
        self.simple += row.get("simple") is True
        self.ll_passed += row.get("ll_passed") is True
        verdict = row.get("absolutely_simple") or "not_evaluated"
        if verdict == "certified_no" and row.get("witness_d") is not None:
            verdict = f"certified_no(d={row['witness_d']})"
        self.verdicts[verdict] += 1
        dev = row.get("max_modulus_deviation")
        if dev is not None:
            self.max_dev = dev if self.max_dev is None else max(self.max_dev, dev)

    def summary(self) -> str:
        no = sum(n for verdict, n in self.verdicts.items() if verdict.startswith("certified_no"))
        return (
            f"tuples={self.tuples} q_polynomial={self.q_polynomial} ordinary={self.ordinary} "
            f"simple={self.simple} absolutely_simple_yes={self.verdicts['certified_yes']} "
            f"absolutely_simple_no={no} absolutely_simple_inconclusive={self.verdicts['inconclusive']} "
            f"ll_passed={self.ll_passed}"
        )


def _report_groups(path: str) -> dict[tuple, _Tally]:
    """The per-(rho, b) tallies of a JSONL file, each row folded in as it is
    read, so no row is kept; ValueError names a bad line."""
    groups: dict[tuple, _Tally] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            error = _row_error(row)
            if error:
                raise ValueError(f"line {number}: {error}")
            t = row.get("tuple") or {}
            groups.setdefault((t.get("rho", "-"), t.get("b", "-")), _Tally()).add(row)
    return groups


def cmd_report(args) -> int:
    try:
        groups = _report_groups(args.infile)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    header = f"{'rho':>5} {'b':>3} {'count':>6} {'q-poly':>7} {'ordinary':>9} {'simple':>7} {'max_dev':>10}  absolutely_simple"
    print(header)
    print("-" * len(header))
    for key in sorted(groups, key=lambda k: (str(k[0]), str(k[1]))):
        grp = groups[key]
        abs_desc = ", ".join(f"{k}:{v}" for k, v in sorted(grp.verdicts.items()))
        dev = "-" if grp.max_dev is None else f"{grp.max_dev:.2e}"
        print(
            f"{key[0]:>5} {key[1]:>3} {grp.tuples:>6} {grp.q_polynomial:>7} "
            f"{grp.ordinary:>9} {grp.simple:>7} {dev:>10}  {abs_desc}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weilpoly", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("construct", help="build and classify one parameter tuple")
    c.add_argument("--rho", type=int, required=True)
    c.add_argument("--b", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    _add_classify_flags(c)
    c.set_defaults(func=cmd_construct)

    v = subs.add_parser("verify", help="classify an arbitrary polynomial")
    v.add_argument("--poly", required=True, help="comma-separated coefficients, low first")
    v.add_argument("--q", type=int, required=True)
    _add_classify_flags(v)
    v.set_defaults(func=cmd_verify)

    s = subs.add_parser("search", help="classify every valid tuple in a range")
    s.add_argument("--rho", default="5,7", help="comma-separated primes")
    s.add_argument("--b", default="1", help="comma-separated values")
    s.add_argument("--r", default="least",
                   help="'least' (least prime primitive root mod rho^2) or comma-separated primes")
    s.add_argument("--q-min", type=int, default=4)
    s.add_argument("--q-max", type=int, default=64)
    s.add_argument("--m-policy", choices=("corners", "all"), default="corners",
                   help="corners ({0,1,m_max}) or all")
    s.add_argument("--out", default=None, help="output path (default stdout)")
    s.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    s.add_argument("--no-timings", action="store_true")
    s.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 to the CPU count); each keeps a few tuples in flight")
    _add_classify_flags(s)
    s.set_defaults(func=cmd_search)

    r = subs.add_parser("report", help="summarize a JSONL result file")
    r.add_argument("--in", dest="infile", required=True)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except WeilPolyError as exc:  # say, a --numeric oracle that fails its certificate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
