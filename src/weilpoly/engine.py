"""Construction and certification pipeline.

Given parameters (rho, b, r, p, n, m) satisfying the preconditions below, the
constructed polynomial

    f(t) = t^(2g) + (m*r + 1)*t^g + q^g
           + sum over 0 < j < g with rho^(b-1) | j of (t^(2g-j) + q^(g-j)*t^j)

(2g = rho^(b-1)*(rho-1), q = p^n) is the characteristic polynomial of
Frobenius of a simple ordinary abelian variety of dimension g over F_q.  The
preconditions: rho >= 5 prime, b >= 1, r prime and a primitive root mod
rho^2, q >= 4 with q = 1 mod r, 0 <= m <= m_max(q, rho^(b-1), r), and
m != -1/r mod p.

classify() re-derives every asserted property from scratch, with exact
certificates: the coefficient symmetry, the root-modulus condition (Sturm),
the unit-circle sufficiency check, ordinarity (gcd of the middle coefficient
with p), simplicity (irreducibility via reduction mod r against the
rho^b-th cyclotomic polynomial), and absolute simplicity (the dimension-2
coefficient rule, or minimal polynomials of root powers).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Iterator

from . import analysis
from .errors import InvalidTuple, NotPrimePower, ShapeMismatch, WrongDimension
from .intpoly import (
    IntPoly,
    QPolynomial,
    check_q_symmetry,
    cyclotomic,
    minimal_poly_of_power,
    reduce_mod,
)
from .modpoly import ModPoly, is_irreducible_mod
from .numtheory import (
    is_prime,
    is_primitive_root_mod,
    least_prime_primitive_root,
    mod_inverse,
    prime_power_decompose,
    primes_first,
)
from .surd import ll_unit_circle_check, m_max

DEFAULT_RAW_CERT_PRIMES = 25  # primes tried for a modular irreducibility certificate

# the parameters of a tuple, in report and CSV order
TUPLE_KEYS = ("rho", "b", "r", "p", "n", "m")


@dataclass(frozen=True)
class ParamTuple:
    """Input parameters; g and q are derived."""

    rho: int
    b: int
    r: int
    p: int
    n: int
    m: int

    @property
    def dpow(self) -> int:
        """rho^(b-1), the exponent-spacing of the nonzero coefficients."""
        return self.rho ** (self.b - 1)

    @property
    def g(self) -> int:
        return self.dpow * (self.rho - 1) // 2

    @property
    def q(self) -> int:
        return self.p ** self.n

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in TUPLE_KEYS}


@dataclass(frozen=True)
class PreconditionCheck:
    name: str
    passed: bool
    detail: str = ""


def validate_tuple(t: ParamTuple) -> list[PreconditionCheck]:
    """Check every construction precondition independently; failures are data."""
    checks: list[PreconditionCheck] = []

    rho_ok = is_prime(t.rho) and t.rho >= 5
    checks.append(PreconditionCheck("rho prime and >= 5", rho_ok, f"rho={t.rho}"))
    checks.append(PreconditionCheck("b >= 1", t.b >= 1, f"b={t.b}"))

    r_prime = is_prime(t.r)
    checks.append(PreconditionCheck("r prime", r_prime, f"r={t.r}"))
    if rho_ok:
        prim = is_primitive_root_mod(t.r, t.rho ** 2)
    else:
        prim = False
    checks.append(
        PreconditionCheck(
            "r primitive root mod rho^2", r_prime and prim, f"r={t.r}, rho^2={t.rho ** 2}"
        )
    )

    p_prime = is_prime(t.p)
    checks.append(PreconditionCheck("p prime", p_prime, f"p={t.p}"))
    checks.append(PreconditionCheck("n >= 1", t.n >= 1, f"n={t.n}"))

    q = t.p ** t.n if t.n >= 1 else 0
    checks.append(PreconditionCheck("q >= 4", q >= 4, f"q={q}"))
    q_cong = t.r >= 2 and q % t.r == 1
    checks.append(PreconditionCheck("q = 1 mod r", q_cong, f"q={q}, r={t.r}"))

    if t.b >= 1 and q >= 2 and t.r >= 2:
        bound = m_max(q, t.rho ** (t.b - 1), t.r) if rho_ok else None
    else:
        bound = None
    m_ok = bound is not None and 0 <= t.m <= bound
    checks.append(
        PreconditionCheck("0 <= m <= m_max", m_ok, f"m={t.m}, m_max={bound}")
    )

    if p_prime and t.r % t.p != 0:
        forbidden = (-mod_inverse(t.r, t.p)) % t.p
        cong_ok = t.m % t.p != forbidden
        detail = f"-1/r = {forbidden} mod {t.p}"
    else:
        cong_ok = False
        detail = "r not invertible mod p"
    checks.append(PreconditionCheck("m != -1/r mod p", cong_ok, detail))
    return checks


def tuple_is_valid(t: ParamTuple) -> bool:
    return all(c.passed for c in validate_tuple(t))


DEFAULT_MAX_TWO_G = 256
DEFAULT_MAX_Q = 2 ** 32


def construct(
    t: ParamTuple,
    max_two_g: int = DEFAULT_MAX_TWO_G,
    max_q: int = DEFAULT_MAX_Q,
) -> QPolynomial:
    """Build the parametrized polynomial; raises InvalidTuple on bad input.

    The degree and field-size caps keep downstream exact algebra tractable;
    raise them explicitly for larger experiments.
    """
    failures = [c.name for c in validate_tuple(t) if not c.passed]
    if failures:
        raise InvalidTuple(f"invalid tuple {t}: {', '.join(failures)}", failures)
    if 2 * t.g > max_two_g:
        raise InvalidTuple(f"2g = {2 * t.g} exceeds the cap {max_two_g}", ["degree cap"])
    if t.q > max_q:
        raise InvalidTuple(f"q = {t.q} exceeds the cap {max_q}", ["field size cap"])
    g, q, d = t.g, t.q, t.dpow
    coeffs = [0] * (2 * g + 1)
    coeffs[2 * g] = 1
    coeffs[g] = t.m * t.r + 1
    coeffs[0] = q ** g
    for j in range(1, g):
        if j % d == 0:
            coeffs[2 * g - j] = 1
            coeffs[j] = q ** (g - j)
    return check_q_symmetry(IntPoly(coeffs), g, q)


def certify_ordinary(f: QPolynomial, p: int) -> bool:
    """gcd(a_g, p) = 1: with the root-modulus condition this certifies that f
    is the characteristic polynomial of an ordinary abelian variety."""
    return gcd(f.middle, p) == 1


def certify_simple(f: QPolynomial, r: int, rho: int, b: int) -> bool:
    """Irreducibility certificate: f reduces mod r to the rho^b-th cyclotomic
    polynomial, and that reduction is irreducible over F_r.  Phi_n is
    irreducible over F_r exactly when r is a primitive root mod n (Lidl &
    Niederreiter, Finite Fields, Thm 2.47), which fails when r divides n.
    True certifies f irreducible over Q, hence (for an ordinary Weil
    polynomial) simplicity."""
    if reduce_mod(f.poly, r) != reduce_mod(cyclotomic(rho ** b), r):
        return False
    return is_primitive_root_mod(r, rho ** b)


@functools.lru_cache(maxsize=None)
def _certificate_primes(tries: int) -> tuple[int, ...]:
    """The first `tries` primes, found once per process."""
    return tuple(primes_first(tries))


def modular_irreducibility_certificate(f: IntPoly, tries: int = DEFAULT_RAW_CERT_PRIMES) -> int | None:
    """First prime r (among the first `tries`) with f irreducible mod r, or None.

    None never claims reducibility; it only means no certificate was found.
    """
    for r in _certificate_primes(tries):
        if f.lc % r == 0:
            continue
        if is_irreducible_mod(ModPoly.from_intpoly(f, r)):
            return r
    return None


def absolutely_simple_g2(f: QPolynomial) -> bool:
    """Dimension-2 test: a simple ordinary abelian surface is absolutely
    simple iff a_1^2 is not in {0, q + a_2, 2*a_2, 3*a_2 - 3*q}."""
    if f.g != 2:
        raise WrongDimension(f"g = {f.g}, need 2")
    a1, a2, q = f.a(1), f.a(2), f.q
    return a1 * a1 not in {0, q + a2, 2 * a2, 3 * a2 - 3 * q}


# -- classification reports ---------------------------------------------------


# the report fields after the tuple, in JSONL and CSV order
REPORT_FIELDS = (
    "g",
    "q",
    "poly",
    "is_q_polynomial",
    "method",
    "ordinary",
    "simple",
    "simple_r",
    "absolutely_simple",
    "witness_d",
    "power_test_bound",
    "ll_passed",
    "max_modulus_deviation",
)

CSV_FIELDS = TUPLE_KEYS + REPORT_FIELDS


@dataclass
class ClassificationReport:
    """Certificate bundle for one polynomial (constructed or supplied)."""

    tuple: ParamTuple | None
    g: int
    q: int
    p: int | None
    poly: IntPoly
    is_q_polynomial: bool
    method: str  # "exact+ll" | "exact" | "shape"
    symmetry_fail_index: int | None = None
    modulus_witness: dict | None = None
    ll_passed: bool | None = None
    ordinary: bool | None = None
    simple: bool | None = None
    simple_r: int | None = None
    absolutely_simple: str = "not_evaluated"
    witness_d: int | None = None
    power_test_bound: int | None = None
    max_modulus_deviation: float | None = None
    failed_preconditions: list | None = None
    timings_ms: dict = field(default_factory=dict)

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {"tuple": self.tuple.as_dict() if self.tuple else None}
        out.update((k, getattr(self, k)) for k in REPORT_FIELDS)
        out["poly"] = self.poly.to_string()
        out["ll_passed"] = True if self.ll_passed else ("inconclusive" if self.ll_passed is False else None)
        if self.symmetry_fail_index is not None:
            out["symmetry_fail_index"] = self.symmetry_fail_index
        if self.modulus_witness is not None:
            out["modulus_witness"] = self.modulus_witness
        if self.failed_preconditions is not None:
            out["failed_preconditions"] = self.failed_preconditions
        if include_timings:
            out["timings_ms"] = {k: round(v, 3) for k, v in self.timings_ms.items()}
        return out

    def to_json_line(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timings), sort_keys=False)

    def to_csv_row(self) -> list[str]:
        d = self.to_json_dict(include_timings=False)
        t = d["tuple"] or {}
        return [str(t.get(k, "")) for k in TUPLE_KEYS] + [
            "" if d[k] is None else str(d[k]) for k in REPORT_FIELDS
        ]


@dataclass(frozen=True)
class ClassifyOptions:
    with_numeric: bool = False
    precision_bits: int | None = None


def _absolute_simplicity(f: QPolynomial, tup: ParamTuple | None) -> tuple[str, int | None, int | None]:
    """(verdict, witness_d, power_test_bound) for a simple ordinary Weil polynomial.

    The g = 2 coefficient rule certifies "yes".  Otherwise the first d (the
    paper's witness rho^(b-1) first, then 2..2g^2) whose theta^d has a minimal
    polynomial of degree < 2g certifies "no"; finding none certifies nothing.
    """
    if f.g == 2 and absolutely_simple_g2(f):
        return "certified_yes", None, None
    bound = 2 * f.g * f.g
    first = [tup.dpow] if tup is not None and tup.b > 1 else []
    s: list[int] = []  # power sums of f, shared by every d
    for d in first + list(range(2, bound + 1)):
        if minimal_poly_of_power(f.poly, d, s).degree < 2 * f.g:
            return "certified_no", d, None
    return "inconclusive", None, bound


def classify(
    source: ParamTuple | tuple[IntPoly, int],
    options: ClassifyOptions = ClassifyOptions(),
) -> ClassificationReport:
    """Run the full certificate chain on a parameter tuple or an (f, q) pair."""
    timings: dict[str, float] = {}

    def clock(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = (time.perf_counter() - t0) * 1000.0
        return out

    if isinstance(source, ParamTuple):
        try:
            qpoly = clock("construct", lambda: construct(source))
        except InvalidTuple as exc:
            return ClassificationReport(
                tuple=source,
                g=source.g if source.b >= 1 else 0,
                q=source.q if source.n >= 1 else 0,
                p=source.p,
                poly=IntPoly.zero(),
                is_q_polynomial=False,
                method="invalid_tuple",
                failed_preconditions=list(exc.failures),
                timings_ms=timings,
            )
        tup = source
        p = source.p
        raw_poly = qpoly.poly
        g, q = qpoly.g, qpoly.q
    else:
        raw_poly, q = source
        tup = None
        try:
            p = prime_power_decompose(q).p
        except NotPrimePower:
            p = None
        if raw_poly.degree < 2 or raw_poly.degree % 2 != 0:
            return ClassificationReport(
                tuple=None,
                g=0,
                q=q,
                p=p,
                poly=raw_poly,
                is_q_polynomial=False,
                method="shape",
                symmetry_fail_index=-1,
                timings_ms=timings,
            )
        g = raw_poly.degree // 2
        try:
            qpoly = check_q_symmetry(raw_poly, g, q)
        except ShapeMismatch as exc:
            return ClassificationReport(
                tuple=None,
                g=g,
                q=q,
                p=p,
                poly=raw_poly,
                is_q_polynomial=False,
                method="shape",
                symmetry_fail_index=exc.index,
                timings_ms=timings,
            )

    report = ClassificationReport(
        tuple=tup,
        g=g,
        q=q,
        p=p,
        poly=raw_poly,
        is_q_polynomial=False,
        method="exact",
        timings_ms=timings,
    )

    modulus = clock("exact_modulus", lambda: analysis.exact_modulus_check(qpoly))
    report.is_q_polynomial = modulus.passed
    report.modulus_witness = modulus.witness

    report.ll_passed = clock("ll_check", lambda: ll_unit_circle_check(qpoly))
    report.method = "exact+ll" if report.ll_passed else "exact"

    if p is not None:
        report.ordinary = clock("ordinary", lambda: certify_ordinary(qpoly, p))

    if tup is not None:
        report.simple = clock(
            "simple", lambda: certify_simple(qpoly, tup.r, tup.rho, tup.b)
        )
        report.simple_r = tup.r if report.simple else None
    else:
        cert_r = clock(
            "simple",
            lambda: modular_irreducibility_certificate(raw_poly),
        )
        report.simple = True if cert_r is not None else None  # None: inconclusive
        report.simple_r = cert_r

    is_weil_simple_ordinary = (
        report.is_q_polynomial and report.ordinary is True and report.simple is True
    )
    if is_weil_simple_ordinary:
        report.absolutely_simple, report.witness_d, report.power_test_bound = clock(
            "abs_simple", lambda: _absolute_simplicity(qpoly, tup)
        )

    if options.with_numeric:
        rr = clock(
            "numeric",
            lambda: analysis.numeric_roots(raw_poly, options.precision_bits, q=q),
        )
        report.max_modulus_deviation = rr.max_modulus_deviation

    return report


# -- deterministic sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class SearchRange:
    """Finite enumeration grid; tuples stream out in lexicographic order
    (rho, b, r, q, m)."""

    rhos: tuple[int, ...]
    bs: tuple[int, ...]
    rs: tuple[int, ...] | None = None  # None: least prime primitive root mod rho^2
    q_min: int = 4
    q_max: int = 64
    m_policy: str = "corners"  # "corners": {0, 1, m_max}; "all": every m

    def candidate_tuples(self) -> Iterator[ParamTuple]:
        for rho in sorted(self.rhos):
            if not is_prime(rho) or rho < 5:
                continue
            if self.rs is None:
                least = least_prime_primitive_root(rho ** 2)
                r_list = [least] if least else []
            else:
                r_list = sorted(self.rs)
            for b in sorted(self.bs):
                if b < 1:
                    continue
                d = rho ** (b - 1)
                for r in r_list:
                    for q in range(max(self.q_min, 4), self.q_max + 1):
                        if q % r != 1:
                            continue
                        try:
                            pp = prime_power_decompose(q)
                        except NotPrimePower:
                            continue
                        bound = m_max(q, d, r)
                        if self.m_policy == "all":
                            ms = range(bound + 1)
                        else:
                            ms = sorted({0, 1, bound})
                        for m in ms:
                            yield ParamTuple(rho=rho, b=b, r=r, p=pp.p, n=pp.n, m=m)


def search(
    rng: SearchRange,
    options: ClassifyOptions = ClassifyOptions(),
    workers: int = 1,
) -> Iterator[ClassificationReport]:
    """Validate, construct, and classify every tuple in the range.

    Invalid tuples are skipped; one worker validates each tuple as the stream
    reaches it.  Output order is the lexicographic candidate order regardless
    of worker count.
    """
    valid = (t for t in rng.candidate_tuples() if tuple_is_valid(t))
    if workers <= 1:
        for t in valid:
            yield classify(t, options)
        return
    from concurrent.futures import ProcessPoolExecutor  # only sweeps with workers load it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(functools.partial(classify, options=options), valid, chunksize=1)


def search_summary(reports: Iterable[ClassificationReport]) -> dict:
    counts = {
        "tuples": 0,
        "q_polynomial": 0,
        "ordinary": 0,
        "simple": 0,
        "absolutely_simple_yes": 0,
        "absolutely_simple_no": 0,
        "absolutely_simple_inconclusive": 0,
        "ll_passed": 0,
    }
    for rep in reports:
        counts["tuples"] += 1
        counts["q_polynomial"] += bool(rep.is_q_polynomial)
        counts["ordinary"] += rep.ordinary is True
        counts["simple"] += rep.simple is True
        counts["ll_passed"] += rep.ll_passed is True
        if rep.absolutely_simple == "certified_yes":
            counts["absolutely_simple_yes"] += 1
        elif rep.absolutely_simple == "certified_no":
            counts["absolutely_simple_no"] += 1
        elif rep.absolutely_simple == "inconclusive":
            counts["absolutely_simple_inconclusive"] += 1
    return counts
