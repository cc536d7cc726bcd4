"""Construction and certification pipeline.

Given parameters (rho, b, r, p, n, m) satisfying the preconditions below, the
constructed polynomial

    f(t) = t^(2g) + (m*r + 1)*t^g + q^g
           + sum over 0 < j < g with rho^(b-1) | j of (t^(2g-j) + q^(g-j)*t^j)

(2g = rho^(b-1)*(rho-1), q = p^n) is the characteristic polynomial of
Frobenius of a simple ordinary abelian variety of dimension g over F_q.  The
preconditions: rho >= 5 prime, b >= 1, r prime and a primitive root mod
rho^2, q >= 4 with q = 1 mod r, 0 <= m <= m_max(q, rho^(b-1), r), and
m != -1/r mod p.  validate_tuple checks them, together with the size caps
2g <= MAX_TWO_G and q <= MAX_Q.

classify() re-derives every asserted property from scratch, with exact
certificates: the coefficient symmetry, the root-modulus condition (Sturm),
the unit-circle sufficiency check, ordinarity (gcd of the middle coefficient
with p), simplicity (irreducibility via reduction mod r against the
rho^b-th cyclotomic polynomial for a tuple; for a bare (f, q), a prime r at
which f is irreducible, decided on the degree-g real Weil transform h by
Ben-Or's test and one Legendre symbol, see modular_irreducibility_certificate),
and absolute simplicity (for g a power of two a theorem, and otherwise
minimal polynomials of root powers theta^d, for the least witness rho first
when b > 1, then for the d <= 2g^2 that can be the order of a ratio of two
roots; see _admissible).

One theorem bounds that order: f is irreducible mod its simplicity
certificate's prime r, so the least order n of a root of unity
theta_i/theta_j is odd, prime to r, and divides
M_r = (r^(2g) - 1)/(r^(2g/g') - 1), where g' is the odd part of g.  A g that
is a power of two has M_r = 1, so no ratio is a root of unity; for a tuple, n
divides rho^b <= 2g^2, so a scan that reaches 2g^2 without a drop certifies
absolute simplicity.  See _absolute_simplicity.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from math import factorial, gcd
from typing import Iterator

from . import analysis
from .errors import InvalidTuple, NotPrimePower, ShapeMismatch
from .intpoly import (
    IntPoly,
    QPolynomial,
    check_q_symmetry,
    minimal_poly_of_power,
)
from .modpoly import is_irreducible_mod, reduce_mod
from .numtheory import (
    euler_phi,
    int_nth_root,
    is_prime,
    is_primitive_root_mod,
    least_prime_primitive_root,
    prime_power_decompose,
    primes_first,
)
from .surd import ll_unit_circle_check, m_max

DEFAULT_RAW_CERT_PRIMES = 25  # primes tried for a modular irreducibility certificate
MAX_TWO_G = 256  # the degree cap of a tuple
MAX_Q = 2 ** 32  # the field size cap of a tuple
SEARCH_WINDOW_PER_WORKER = 4  # tuples in flight per worker of a parallel search

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


def _capped_power(base: int, e: int, cap: int) -> int | None:
    """base^e for e >= 0, or None when |base^e| > cap, decided before a power
    past the cap is taken: |base| >= 2 gives |base^e| >= 2^e."""
    if abs(base) >= 2 and e >= cap.bit_length():
        return None
    power = base ** e
    return power if abs(power) <= cap else None


def _degree_cap(rho: int, b: int) -> tuple[PreconditionCheck, int | None]:
    """The check 2g <= MAX_TWO_G, and d = rho^(b-1) (0 for b < 1) or None when
    it fails; validate_tuple and SearchRange both decide the cap here."""
    d = _capped_power(rho, b - 1, MAX_TWO_G) if b >= 1 else 0
    two_g = f"{rho}^{b - 1}*{rho - 1}" if d is None else d * (rho - 1)
    passed = d is not None and two_g <= MAX_TWO_G
    return PreconditionCheck("degree cap", passed, f"2g={two_g}, cap={MAX_TWO_G}"), d if passed else None


def validate_tuple(t: ParamTuple) -> list[PreconditionCheck]:
    """Check every construction precondition independently; failures are data."""
    checks: list[PreconditionCheck] = []

    rho_ok = is_prime(t.rho) and t.rho >= 5
    checks.append(PreconditionCheck("rho prime and >= 5", rho_ok, f"rho={t.rho}"))
    checks.append(PreconditionCheck("b >= 1", t.b >= 1, f"b={t.b}"))

    r_prime = is_prime(t.r)
    checks.append(PreconditionCheck("r prime", r_prime, f"r={t.r}"))
    # rho - 1 is 2g at b = 1, so a larger rho fails the degree cap at every b;
    # the check then fails undecided, since deciding it factors phi(rho^2)
    decided = t.rho - 1 <= MAX_TWO_G
    prim = rho_ok and r_prime and decided and is_primitive_root_mod(t.r, t.rho ** 2)
    detail = f"r={t.r}, rho^2={t.rho ** 2}" + ("" if decided else ", undecided past the degree cap")
    checks.append(PreconditionCheck("r primitive root mod rho^2", prim, detail))

    p_prime = is_prime(t.p)
    checks.append(PreconditionCheck("p prime", p_prime, f"p={t.p}"))
    checks.append(PreconditionCheck("n >= 1", t.n >= 1, f"n={t.n}"))

    # q = p^n only under the field size cap; None: |q| > MAX_Q, so q >= 4 unless q < 0
    q = _capped_power(t.p, t.n, MAX_Q) if t.n >= 1 else 0
    q_text = f"{t.p}^{t.n}" if q is None else q
    q_ok = (t.p > 0 or t.n % 2 == 0) if q is None else q >= 4
    checks.append(PreconditionCheck("q >= 4", q_ok, f"q={q_text}"))
    q_cong = t.r >= 2 and (pow(t.p, t.n, t.r) if q is None else q % t.r) == 1
    checks.append(PreconditionCheck("q = 1 mod r", q_cong, f"q={q_text}, r={t.r}"))

    # the caps keep the exact algebra tractable; they are decided before
    # m_max, which computes q^d
    degree, d = _degree_cap(t.rho, t.b)
    field = PreconditionCheck("field size cap", q is not None, f"q={q_text}, cap={MAX_Q}")
    in_caps = degree.passed and field.passed
    bound = m_max(q, d, t.r) if in_caps and rho_ok and t.b >= 1 and q >= 2 and t.r >= 2 else None
    m_ok = bound is not None and 0 <= t.m <= bound
    checks.append(PreconditionCheck("0 <= m <= m_max", m_ok, f"m={t.m}, m_max={bound}"))

    if p_prime and t.r % t.p != 0:
        forbidden = -pow(t.r, -1, t.p) % t.p
        cong_ok = t.m % t.p != forbidden
        detail = f"-1/r = {forbidden} mod {t.p}"
    else:
        cong_ok = False
        detail = "r not invertible mod p"
    checks.append(PreconditionCheck("m != -1/r mod p", cong_ok, detail))
    return checks + [degree, field]


def construct(t: ParamTuple, checks: list[PreconditionCheck] | None = None) -> QPolynomial:
    """Build the parametrized polynomial; raises InvalidTuple on bad input.

    `checks` is validate_tuple(t) when the caller has already made it.
    """
    failures = [c for c in (validate_tuple(t) if checks is None else checks) if not c.passed]
    if failures:
        raise InvalidTuple(f"invalid tuple {t}: {', '.join(c.name for c in failures)}", failures)
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
    d = rho ** (b - 1)  # Phi_(rho^b)(t) = Phi_rho(t^d), coefficients 0 and 1
    if reduce_mod(f.poly.coeffs, r) != tuple(int(j % d == 0) for j in range((rho - 1) * d + 1)):
        return False
    return is_primitive_root_mod(r, rho ** b)


@functools.lru_cache(maxsize=None)
def _certificate_primes(tries: int) -> tuple[int, ...]:
    """The first `tries` primes, found once per process."""
    return tuple(primes_first(tries))


def modular_irreducibility_certificate(
    f: IntPoly, tries: int = DEFAULT_RAW_CERT_PRIMES, h: IntPoly | None = None
) -> int | None:
    """First prime r (among the first `tries`) with f irreducible mod r, or None.

    None never claims reducibility; it only means no certificate was found.
    f must be q-symmetric: monic of degree 2g with coeff(j) = q^(g-j) *
    coeff(2g-j), q the g-th root of the constant term (positive for even g);
    otherwise ValueError.  The test at r runs on h = real_weil_transform(f)
    (the given h, when the caller has made it), of degree g, where
    f(t) = t^g * h(t + q/t):

        f is irreducible mod r  iff  r does not divide q, h is irreducible mod r
        and t^2 - x*t + q is irreducible over F_r[x]/(h),

    and the quadratic condition is one test in F_r: Legendre(N, r) = -1 for
    odd r, N = h(2s)*h(-2s) = E(4q)^2 - 4q*O(4q)^2 (s^2 = q, h = E(x^2) +
    x*O(x^2)), and h(0)*h'(0) odd for r = 2.  It runs before Ben-Or's test of h.

    Proof.  Reduce mod r; write F = F_r.  If r | q, then f = t^g * h(t) has the
    factor t and degree 2g >= 2: reducible.  Let r not divide q.
    (<=) Let a be a root of h, so [F(a):F] = g, and theta a root of
    t^2 - a*t + q, so [F(theta):F(a)] = 2.  theta != 0 and a = theta + q/theta,
    so f(theta) = theta^g * h(a) = 0 and F(a) lies in F(theta): theta has
    degree 2g over F, and the monic f of degree 2g is its minimal polynomial.
    (=>) Let theta be a root of the irreducible f and a = theta + q/theta (f(0)
    = q^g != 0).  Then h(a) = 0 and theta is a root of t^2 - a*t + q over F(a),
    so 2g = [F(theta):F] <= 2*[F(a):F] <= 2g.  Both are equalities: h (of
    degree g, with the root a) is irreducible, and so is t^2 - a*t + q over F(a).
    The quadratic over L = F(a) = F_(r^g), with h irreducible:
    - odd r: it is irreducible iff its discriminant c = a^2 - 4q is not a
      square in L (c = 0 gives a double root), iff c^((r^g - 1)/2) = -1.  That
      power is Norm(c)^((r - 1)/2), since Norm(c) = c^((r^g - 1)/(r - 1)), and
      Norm(c) = prod over the conjugates a_i of (a_i - 2s)(a_i + 2s) = h(2s) *
      h(-2s) = N mod r.  N = 0 mod r means c = 0: Legendre 0, reducible.
    - r = 2 (q odd, so q = 1): for a = 0, t^2 + 1 = (t + 1)^2 is reducible;
      a = 0 is a root of the irreducible h only when h = x, so g = 1 and h(0)
      is even.  For a != 0, t = a*u gives a^2*(u^2 + u + 1/a^2), irreducible
      iff Tr(1/a^2) = Tr(1/a) = 1 (Artin-Schreier; the trace is invariant
      under squaring).  Tr(1/a) = sum of 1/a_i = e_(g-1)/e_g = h'(0)/h(0), as
      signs vanish mod 2; so the quadratic is irreducible iff h(0) and h'(0)
      are odd (Lidl & Niederreiter, Finite Fields, chapters 2 and 3).
    """
    g, c0 = f.degree // 2, f.coeff(0)
    if g < 1:
        raise ValueError(f"not q-symmetric: degree {f.degree} < 2")
    q = (-1 if c0 < 0 else 1) * (int_nth_root(abs(c0), g) if c0 else 0)
    try:
        qpoly = check_q_symmetry(f, g, q)
    except ShapeMismatch as exc:
        raise ValueError(f"not q-symmetric: {exc}") from exc
    if h is None:
        h = analysis.real_weil_transform(qpoly)
    even, odd = analysis.horner(h.coeffs[0::2], 4 * q), analysis.horner(h.coeffs[1::2], 4 * q)
    norm = even * even - 4 * q * odd * odd  # h(2s) * h(-2s), s^2 = q
    for r in _certificate_primes(tries):
        if q % r == 0:
            continue
        quadratic = h.coeff(0) * h.coeff(1) % 2 == 1 if r == 2 else pow(norm, (r - 1) // 2, r) == r - 1
        if quadratic and is_irreducible_mod(h.coeffs, r):
            return r
    return None


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
        if include_timings:
            out["timings_ms"] = {k: round(v, 3) for k, v in self.timings_ms.items()}
        return out


def csv_row(row: dict) -> list[str]:
    """The CSV cells, in CSV_FIELDS order, of a report's to_json_dict()."""
    t = row["tuple"] or {}
    return [str(t.get(k, "")) for k in TUPLE_KEYS] + [
        "" if row[k] is None else str(row[k]) for k in REPORT_FIELDS
    ]


@dataclass(frozen=True)
class ClassifyOptions:
    with_numeric: bool = False


def _admissible(d: int, g: int, r: int) -> bool:
    """Whether the prime r does not divide d (4 does not divide d when r = 2),
    phi(d) divides 2^g * g! and phi(d) / gcd(phi(d), 2g) <= max(1, 2g - 2):
    the orders d that a ratio of two distinct roots of a simple ordinary Weil
    polynomial of degree 2g, separable mod r, can have (the proof is in
    _absolute_simplicity)."""
    if d % (4 if r == 2 else r) == 0:
        return False
    phi = euler_phi(d)
    return (2 ** g * factorial(g)) % phi == 0 and phi // gcd(phi, 2 * g) <= max(1, 2 * g - 2)


def _absolute_simplicity(f: QPolynomial, r: int, tup: ParamTuple | None) -> tuple[str, int | None, int | None]:
    """(verdict, witness_d, power_test_bound) for a simple ordinary Weil polynomial
    f, irreducible over Q and irreducible mod the prime r: r is the report's
    simplicity certificate, tup.r for the tuple tup whose certify_simple
    certificate f carries, or simple_r for a bare (f, q).

    A g that is a power of two certifies "yes" with nothing computed (the
    theorem below).  Otherwise the first d (rho first for a tuple with b > 1,
    then the admissible d in 2..2g^2) whose theta^d has a minimal polynomial
    of degree < 2g certifies "no".  Finding none certifies "yes" for a tuple,
    whose least witness would divide rho^b <= 2g^2; for a bare (f, q) it
    certifies nothing, and power_test_bound = 2g^2 says how far the scan went.

    Absolutely simple means that no theta^d, d >= 1, has a minimal polynomial
    of degree < 2g (Howe & Zhu, J. Number Theory 92, 2002).  Let f have the
    roots theta_1..theta_2g in its splitting field K, and let
    zeta = theta_i/theta_j be a root of unity of order n > 1.

    Lemma (no ramification at r).  r does not divide n, or r = 2 and 4 does
    not divide n.  f mod r is irreducible over the perfect field F_r, so
    separable: r does not divide the discriminant of f, every Q(theta_i) is
    unramified at r, and so is their compositum K.  Q(zeta_n) lies in K, so
    it is unramified at r too.  Q(zeta_n) is ramified at every prime dividing
    n, except at 2 when n = 2 mod 4 (then Q(zeta_n) = Q(zeta_(n/2)))
    (L. C. Washington, Introduction to Cyclotomic Fields, Prop. 2.3).

    The scan over 2..2g^2 tests only the admissible d (_admissible), and still
    finds the first d that drops the degree, since that d is the order of a
    ratio of two roots and every such order is admissible:
    1. The char poly prod (t - theta_i^d) of theta^d is a power of its minimal
       polynomial.  So if theta^d drops the degree, theta_i^d = theta_j^d for
       two distinct roots, and zeta = theta_i/theta_j != 1 is a root of unity
       of some order n | d; theta^n drops the degree too.  The first dropping
       d in 2..2g^2 is therefore such an n, and the lemma holds for it.
    2. Q(zeta_n) lies in the splitting field of f.  Its Galois group permutes
       the g pairs {theta, q/theta}, which partition the roots (theta = q/theta
       would make theta^2 = q, so f = t^2 - q, which is not ordinary).  So the
       group embeds in the hyperoctahedral group C_2 wr S_g of order 2^g * g!,
       and phi(n) divides 2^g * g! (Howe & Zhu, J. Number Theory 92, 2002).
    3. Q(zeta_n) also lies in Q(theta_i, theta_j), of degree 2g * m over Q,
       where m = 1 if theta_j = q/theta_i and m <= 2g - 2 otherwise (theta_j
       is then a root of f / ((t - theta_i)(t - q/theta_i)) over Q(theta_i)).
       So phi(n) divides 2g * m, and phi(n) / gcd(phi(n), 2g) divides m.

    Theorem.  Let n be the least d >= 2 for which theta^d drops the degree.
    Then n is odd, r does not divide n, and n divides
    M_r = (r^(2g) - 1)/(r^(2g/g') - 1), where g' is the odd part of g.
    a. A Frobenius phi at a prime R of K above r acts on the 2g roots as one
       2g-cycle: they reduce to the distinct roots of the irreducible f mod r,
       which x -> x^r permutes in one cycle.
    b. theta_i^n = theta_j^n is a Galois-stable relation, so the fibres of
       t -> t^n on the roots are the blocks of one size s >= 2 (step 1).  A
       group that contains the 2g-cycle phi has at most one block system of
       each size s: the orbits of phi^(2g/s).
    c. The pairs {theta, q/theta} are a block system of size 2, so they are
       the orbits of phi^g.  If s were even, each fibre would be a union of
       orbits of phi^g = (phi^(2g/s))^(s/2), so theta^n = (q/theta)^n and
       theta^2/q would be a root of unity, for every root.  Then every root
       would have valuation v(q)/2 > 0 at a prime above p, but g of them are
       units, since p does not divide the middle coefficient.  So s is odd,
       s >= 3, and s divides g'.
    d. Let e = 2g/s, tau = phi^e and zeta = tau(theta)/theta, so zeta^n = 1.
       zeta != 1 and theta^(ord zeta) drops the degree, so zeta has order
       exactly n.  By the lemma zeta = sigma * zeta', with sigma = +-1
       (sigma = 1 for odd r) and zeta' of order prime to r.  phi acts on the
       roots of unity of order prime to r as x -> x^r, and tau^s(theta) =
       theta, so 1 = prod over 0 <= k < s of tau^k(zeta) = sigma^s * zeta'^N
       with N = (r^(2g) - 1)/(r^e - 1) = sum over 0 <= k < s of r^(k*e).  N is
       odd: for odd r it is a sum of s odd terms, for r = 2 its only odd term
       is 1.  So sigma = sigma^s = zeta'^(-N) has odd order: sigma = 1, and
       n = ord zeta' is odd, prime to r, and divides N.  s divides g', so
       2g/g' divides e, r^(2g/g') - 1 divides r^e - 1, and N divides M_r.
    Corollaries:
    - g a power of two: g' = 1 and M_r = 1, so no theta^d drops the degree.
    - a tuple: the roots multiply to q^g, and r does not divide q (q = 1 mod
      r), so every root is a unit at R.  Modulo R the roots reduce to roots of
      Phi_(rho^b) mod r, that is to rho^b-th roots of unity, and so does
      zeta = theta_i * theta_j^(-1).  Reduction mod R is injective on the
      roots of unity of order prime to r, and n is prime to r, so zeta^(rho^b)
      = 1: n is an odd divisor of rho^b, and rho^b <= 2g^2 (rho >= 5 gives
      2*rho <= (rho - 1)^2).  A scan that reaches 2g^2 without a drop has
      passed n, which proves "yes".  For b > 1, f lies in Z[t^(rho^(b-1))],
      so theta * w is a root with theta for each rho-th root of unity w, and
      theta^rho drops the degree: rho, the least divisor of rho^b past 1, is
      tried first.
    """
    g = f.g
    if g & (g - 1) == 0:  # M_r = 1
        return "certified_yes", None, None
    bound = 2 * g * g
    first = [tup.rho] if tup is not None and tup.b > 1 else []
    # the admissible d are decided as the scan reaches them: most scans stop early
    scan = filter(lambda d: _admissible(d, g, r), range(2, bound + 1))
    s: list[int] = []  # power sums of f, shared by every d
    for d in itertools.chain(first, scan):
        if minimal_poly_of_power(f.poly, d, s).degree < 2 * g:
            return "certified_no", d, None
    return ("certified_yes", None, None) if tup is not None else ("inconclusive", None, bound)


def classify(
    source: ParamTuple | tuple[IntPoly, int],
    options: ClassifyOptions = ClassifyOptions(),
    checks: list[PreconditionCheck] | None = None,
) -> ClassificationReport:
    """Run the full certificate chain on a valid parameter tuple or an (f, q)
    pair; `checks` is validate_tuple(source) when the caller has already made it.

    Raises InvalidTuple for a tuple that fails a precondition and NotPrimePower
    for a q that is not a prime power."""
    timings: dict[str, float] = {}

    def clock(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0) * 1000.0
        return out

    if isinstance(source, ParamTuple):
        tup, p = source, source.p
        qpoly = clock("construct", lambda: construct(tup, checks))
        raw_poly, g, q = qpoly.poly, qpoly.g, qpoly.q
    else:
        (raw_poly, q), tup = source, None
        p = prime_power_decompose(q).p
        even = raw_poly.degree >= 2 and raw_poly.degree % 2 == 0
        g = raw_poly.degree // 2 if even else 0
    report = ClassificationReport(
        tuple=tup, g=g, q=q, poly=raw_poly, is_q_polynomial=False, method="exact", timings_ms=timings
    )

    if tup is None and g == 0:
        report.method, report.symmetry_fail_index = "shape", -1
        return report
    if tup is None:
        try:
            qpoly = check_q_symmetry(raw_poly, g, q)
        except ShapeMismatch as exc:
            report.method, report.symmetry_fail_index = "shape", exc.index
            return report

    # h serves the modulus check and a bare (f, q)'s simplicity certificate
    h = clock("exact_modulus", lambda: analysis.real_weil_transform(qpoly))
    modulus = clock("exact_modulus", lambda: analysis.exact_modulus_check(qpoly, h))
    report.is_q_polynomial = modulus.passed
    report.modulus_witness = modulus.witness

    report.ll_passed = clock("ll_check", lambda: ll_unit_circle_check(qpoly))
    report.method = "exact+ll" if report.ll_passed else "exact"

    report.ordinary = clock("ordinary", lambda: certify_ordinary(qpoly, p))

    if tup is not None:
        report.simple = clock(
            "simple", lambda: certify_simple(qpoly, tup.r, tup.rho, tup.b)
        )
        report.simple_r = tup.r if report.simple else None
    else:
        cert_r = clock("simple", lambda: modular_irreducibility_certificate(raw_poly, h=h))
        report.simple = True if cert_r is not None else None  # None: inconclusive
        report.simple_r = cert_r

    is_weil_simple_ordinary = (
        report.is_q_polynomial and report.ordinary is True and report.simple is True
    )
    if is_weil_simple_ordinary:
        report.absolutely_simple, report.witness_d, report.power_test_bound = clock(
            "abs_simple", lambda: _absolute_simplicity(qpoly, report.simple_r, tup)
        )

    if options.with_numeric:
        rr = clock("numeric", lambda: analysis.numeric_roots(raw_poly, q=q))
        report.max_modulus_deviation = rr.max_modulus_deviation

    return report


# -- deterministic sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class SearchRange:
    """Finite enumeration grid; tuples stream out in lexicographic order
    (rho, b, r, q, m).  rhos, bs and rs are sets: a repeated entry counts once."""

    rhos: tuple[int, ...]
    bs: tuple[int, ...]
    rs: tuple[int, ...] | None = None  # None: least prime primitive root mod rho^2
    q_min: int = 4
    q_max: int = 64
    m_policy: str = "corners"  # "corners": {0, 1, m_max}; "all": every m

    def candidate_tuples(self) -> Iterator[ParamTuple]:
        for rho in sorted(set(self.rhos)):
            # past rho - 1 = MAX_TWO_G every b fails the degree cap
            if not is_prime(rho) or rho < 5 or rho - 1 > MAX_TWO_G:
                continue
            if self.rs is None:
                least = least_prime_primitive_root(rho ** 2)
                r_list = [least] if least else []
            else:
                r_list = sorted(set(self.rs))
            for b in sorted(set(self.bs)):
                d = _degree_cap(rho, b)[1]
                if b < 1 or d is None:
                    continue
                for r in r_list:
                    # a q past MAX_Q fails the field size cap, so it is not enumerated
                    for q in range(max(self.q_min, 4), min(self.q_max, MAX_Q) + 1):
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
    """Construct and classify every valid tuple in the range.

    Each candidate is validated once, as the stream reaches it; an invalid one
    is never classified and yields no report.  Several workers keep at most
    SEARCH_WINDOW_PER_WORKER candidates each in flight.  Output order is the
    lexicographic candidate order regardless of worker count.
    """
    tuples = rng.candidate_tuples()
    if workers == 1:
        reports = map(_classify_if_valid, tuples, itertools.repeat(options))
        yield from (rep for rep in reports if rep is not None)
        return
    from concurrent.futures import ProcessPoolExecutor  # only sweeps with workers load it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = itertools.islice(tuples, SEARCH_WINDOW_PER_WORKER * workers)
        pending = deque(pool.submit(_classify_if_valid, t, options) for t in window)
        while pending:
            rep = pending.popleft().result()
            if rep is not None:
                yield rep
            pending.extend(pool.submit(_classify_if_valid, t, options) for t in itertools.islice(tuples, 1))


def _classify_if_valid(t: ParamTuple, options: ClassifyOptions) -> ClassificationReport | None:
    """classify(t), or None for an invalid t; validates t once."""
    checks = validate_tuple(t)
    return classify(t, options, checks) if all(c.passed for c in checks) else None
