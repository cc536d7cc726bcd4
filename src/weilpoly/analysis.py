"""Exact decision of the root-modulus condition, plus a numeric cross-oracle.

A degree-2g polynomial f with the (g, q) coefficient pairing factors through
the substitution x = t + q/t: there is a unique degree-g integer polynomial h
with f(t) = t^g * h(t + q/t).  Every root pair (z, q/z) of f maps to the root
x = z + q/z of h, and |z| = sqrt(q) exactly when x is real with
|x| <= 2*sqrt(q).  So "all roots of f on the circle |z| = sqrt(q)" is
equivalent to "h is totally real with all roots in [-2*sqrt(q), 2*sqrt(q)]",
which Sturm chains decide exactly: at the endpoints +/-2*sqrt(q) each chain
element p(x) = E(x^2) + x*O(x^2) takes the value E(4q) +/- 2*sqrt(q)*O(4q),
whose sign is one integer comparison.

The numeric oracle (simultaneous root iteration via mpmath) is deliberately
independent of the Sturm route and is used to cross-check it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EndpointRoot,
    NoConvergence,
    NotSquarefree,
    NotSymmetric,
    WeilPolyError,
    ZeroPolynomial,
)
from .intpoly import IntPoly, QPolynomial, pseudo_remainder
from .numtheory import integer_sqrt
from .surd import QuadSurd


class _Infinity:
    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(1)


@functools.lru_cache(maxsize=None)
def _dickson_basis(k: int, q: int) -> IntPoly:
    """The monic degree-k polynomial D_k with D_k(t + q/t) = t^k + (q/t)^k.

    D_0 = 2, D_1 = x, D_k = x*D_{k-1} - q*D_{k-2} (Dickson polynomials)."""
    if k == 0:
        return IntPoly((2,))
    if k == 1:
        return IntPoly.x()
    return IntPoly.x() * _dickson_basis(k - 1, q) - _dickson_basis(k - 2, q).scale(q)


@dataclass(frozen=True)
class RealWeilPoly:
    """The degree-g polynomial h with f(t) = t^g * h(t + q/t)."""

    h: IntPoly
    g: int
    q: int


def real_weil_transform(f: QPolynomial) -> RealWeilPoly:
    """Compute h with f(t) = t^g * h(t + q/t), exactly."""
    if not isinstance(f, QPolynomial):
        raise NotSymmetric("expected a checked QPolynomial; run check_q_symmetry first")
    g, q = f.g, f.q
    h = _dickson_basis(g, q)
    for j in range(1, g):
        h = h + _dickson_basis(g - j, q).scale(f.a(j))
    h = h + IntPoly((f.middle,))
    return RealWeilPoly(h=h, g=g, q=q)


# -- Sturm machinery -----------------------------------------------------------


def sturm_chain(h: IntPoly) -> list[IntPoly]:
    """Signed remainder chain of (h, h') over Z.

    Each element is a positive integer multiple of the exact rational chain
    element, which preserves all sign information: each pseudo-remainder is
    negated unless lc^(deg a - deg b + 1) is negative, then divided by its
    (positive) content.  The last element is gcd(h, h') up to a factor, so it
    is constant exactly when h is squarefree.
    """
    if h.is_zero():
        raise ZeroPolynomial("Sturm chain of zero polynomial")
    chain = [h]
    if h.degree >= 1:
        chain.append(h.derivative())
        while chain[-1].degree > 0:
            a, b = chain[-2], chain[-1]
            rem = pseudo_remainder(a, b)
            if rem.is_zero():
                break
            if b.lc > 0 or (a.degree - b.degree) % 2:  # lc(b)^(deg a - deg b + 1) > 0
                rem = -rem
            c = rem.content()
            chain.append(IntPoly(x // c for x in rem.coeffs))
    return chain


def _horner(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_at(p: IntPoly, point) -> int:
    """Exact sign of p at a Fraction, +/- infinity, or a QuadSurd that is an
    integer a or an integer multiple b*sqrt(D)."""
    if isinstance(point, _Infinity):
        if p.is_zero():
            return 0
        s = 1 if p.lc > 0 else -1
        if point.sign < 0 and p.degree % 2 == 1:
            s = -s
        return s
    if isinstance(point, QuadSurd):
        a, b = point.a, point.b
        if a and b:
            raise ValueError(f"{point!r} is neither an integer nor a multiple of sqrt(D)")
        # x = a + b*sqrt(D) has x^2 = a^2 + b^2*D, so p(x) = E(x^2) + x*O(x^2)
        x2 = a * a + b * b * point.D
        even, odd = _horner(p.coeffs[0::2], x2), _horner(p.coeffs[1::2], x2)
        return QuadSurd(point.D, even + a * odd, b * odd).sign()
    if isinstance(point, Fraction):
        u, v = point.numerator, point.denominator
        n = max(p.degree, 0)
        acc = 0
        for j in range(n, -1, -1):
            acc = acc * u + p.coeff(j) * v ** (n - j)
        return (acc > 0) - (acc < 0)
    raise TypeError(f"unsupported evaluation point {point!r}")


def _variations(chain: list[IntPoly], point) -> int:
    signs = [_sign_at(p, point) for p in chain]
    if signs[0] == 0:
        raise EndpointRoot("h vanishes at an interval endpoint")
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_between(chain: list[IntPoly], lo, hi) -> int:
    """Number of distinct real roots in (lo, hi] of h = chain[0], where chain
    is sturm_chain(h) and lo < hi are QuadSurds, Fractions or +/- infinity.

    Raises NotSquarefree if h is not squarefree (the chain ends in a
    nonconstant gcd(h, h')), and EndpointRoot if h vanishes at lo or hi.
    """
    if chain[-1].degree > 0:
        raise NotSquarefree("input must be squarefree")
    return _variations(chain, lo) - _variations(chain, hi)


def _cauchy_bound(h: IntPoly) -> int:
    """Integer B with all real roots of h in (-B, B)."""
    lc = abs(h.lc)
    m = max(abs(c) for c in h.coeffs)
    return 2 + m // lc


def _isolate_root_above(chain: list[IntPoly], q: int, above: int) -> tuple[Fraction, Fraction]:
    """Isolating (lo, hi] interval with rational endpoints for some root of
    h = chain[0] lying strictly above 2*sqrt(q), where chain = sturm_chain(h),
    h(2*sqrt(q)) != 0 and h has `above` distinct roots above 2*sqrt(q).
    Raises WeilPolyError if `above` is 0, or if a loop runs past what the
    root separation allows (a chain or a count at fault)."""
    h = chain[0]
    if above == 0:
        raise WeilPolyError("no root of h above 2*sqrt(q)")
    # 2^-bits is below the distance between distinct roots of prod = h*(x^2 - 4q),
    # by Mahler's bound sqrt(3) n^(-(n+2)/2) |prod|_2^(1-n), valid for its radical
    prod = (h * IntPoly((-4 * q, 0, 1))).coeffs
    n, norm_sq = len(prod) - 1, sum(c * c for c in prod)
    bits = ((n + 2) * n.bit_length() + (n - 1) * norm_sq.bit_length()) // 2 + 1
    # rational left cut in (2*sqrt(q), 2*sqrt(q) + 2^-k]: below every root
    # above the band once k >= bits
    k = 1
    while True:
        z = Fraction(integer_sqrt(4 * q * 4 ** k) + 1, 2 ** k)
        if _sign_at(h, z) == 0:
            return z, z
        if count_between(chain, z, POS_INF) == above:
            break
        if k >= bits:
            raise WeilPolyError("no rational cut below the roots above 2*sqrt(q)")
        k *= 2
    bound = _cauchy_bound(h)
    lo, hi, count = z, Fraction(bound), above
    for _ in range(bound.bit_length() + bits + 1):
        if count == 1:
            return lo, hi
        mid = (lo + hi) / 2
        if _sign_at(h, mid) == 0:
            return mid, mid
        left = count_between(chain, lo, mid)
        if left >= 1:
            hi, count = mid, left
        else:
            lo = mid
    raise WeilPolyError("bisection did not isolate a root above 2*sqrt(q)")


@dataclass(frozen=True)
class ModulusCheckResult:
    """Outcome of the exact all-roots-on-circle decision."""

    passed: bool
    witness: dict | None = None


def exact_modulus_check(f: QPolynomial) -> ModulusCheckResult:
    """Decide exactly whether every root of f has modulus sqrt(q).

    Reduces f to the degree-g polynomial h, strips multiplicities (dividing h
    by the last element of its Sturm chain, gcd(h, h')), accepts
    endpoint factors (roots t = +/-sqrt(q), which appear in h as roots at
    +/-2*sqrt(q)), and requires all remaining roots of h to be real and
    strictly inside (-2*sqrt(q), 2*sqrt(q)).  On failure the witness isolates
    an offending root of h (real outside the band) or reports the number of
    nonreal roots.
    """
    q = f.q
    h = real_weil_transform(f).h
    chain = sturm_chain(h)
    h0 = h
    if chain[-1].degree > 0:
        h0 = h.divmod(chain[-1].primitive())[0]
    s = integer_sqrt(q)
    if s * s == q:
        for root in (2 * s, -2 * s):
            lin = IntPoly((-root, 1))
            if lin.divides(h0):
                h0 = h0.divmod(lin)[0]
    else:
        edge_factor = IntPoly((-4 * q, 0, 1))  # x^2 - 4q
        if edge_factor.divides(h0):
            h0 = h0.divmod(edge_factor)[0]
    if h0.degree <= 0:
        return ModulusCheckResult(passed=True)
    if h0.degree < h.degree:  # the radical or an endpoint factor changed h
        chain = sturm_chain(h0)
    edge = QuadSurd(q, 0, 2)  # 2*sqrt(q)
    # sign variations of the chain, taken once per point
    v_lo, v_hi = _variations(chain, -edge), _variations(chain, edge)
    inside = v_lo - v_hi
    if inside == h0.degree:
        return ModulusCheckResult(passed=True)
    v_neg_inf, v_pos_inf = _variations(chain, NEG_INF), _variations(chain, POS_INF)
    total_real = v_neg_inf - v_pos_inf
    if total_real > inside:
        above = v_hi - v_pos_inf
        if above > 0:
            a, b = _isolate_root_above(chain, q, above)
            side = "above"
        else:
            neg = IntPoly(
                (-1) ** j * c for j, c in enumerate(h0.coeffs)
            )  # h0(-x), mirrors roots below the band to above it
            a, b = _isolate_root_above(sturm_chain(neg), q, v_neg_inf - v_lo)
            a, b = -b, -a
            side = "below"
        witness = {
            "kind": "real_root_outside_band",
            "side": side,
            "interval": [str(a), str(b)],
        }
        return ModulusCheckResult(passed=False, witness=witness)
    witness = {
        "kind": "nonreal_roots",
        "real_roots": total_real,
        "degree": h0.degree,
    }
    return ModulusCheckResult(passed=False, witness=witness)


# -- numeric oracle --------------------------------------------------------------


MIN_PRECISION_BITS = 64


@dataclass(frozen=True)
class RootReport:
    """All complex roots of a polynomial, with modulus diagnostics."""

    roots: tuple[complex, ...]
    modulus_deviations: tuple[float, ...] | None
    max_modulus_deviation: float | None
    precision_bits: int


def default_precision_bits(f: IntPoly) -> int:
    """Working precision policy: coefficients reach q^g, so scale with them."""
    m = max((abs(c) for c in f.coeffs), default=1)
    return max(128, 2 * m.bit_length() + 64)


def numeric_roots(f: IntPoly, precision_bits: int | None = None, q: int | None = None) -> RootReport:
    """All complex roots by simultaneous iteration at high working precision.

    mpmath is imported here, so only the numeric oracle loads it.  Residuals
    are certified: every root z must have relative backward error
    |f(z)| / sum_i |f_i| |z|^i below 2^(-precision_bits/2), else the working
    precision is raised and the iteration retried; NoConvergence is raised
    (with partial results) after the retry cap.  When q is supplied the
    report carries | |z| - sqrt(q) | / sqrt(q) for every root.
    """
    import mpmath

    if f.degree < 1:
        raise ValueError("numeric_roots expects a nonconstant polynomial")
    if precision_bits is None:
        precision_bits = default_precision_bits(f)
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS}")
    maxbit = max(abs(c) for c in f.coeffs).bit_length()
    work = max(precision_bits, maxbit + 32) + 32
    coeffs_desc = list(reversed(f.coeffs))
    threshold_exp = -(precision_bits // 2)
    last_roots = None
    for attempt in range(4):
        with mpmath.workprec(work):
            try:
                roots = mpmath.polyroots(
                    coeffs_desc, maxsteps=200, extraprec=work // 2, cleanup=True
                )
            except mpmath.libmp.NoConvergence:
                work *= 2
                continue
            last_roots = roots
            ok = True
            for z in roots:
                num = abs(mpmath.polyval(coeffs_desc, z))
                den = sum(
                    abs(mpmath.mpf(c)) * abs(z) ** (f.degree - i)
                    for i, c in enumerate(coeffs_desc)
                )
                if num > den * mpmath.mpf(2) ** threshold_exp:
                    ok = False
                    break
            if ok:
                devs = None
                if q is not None:
                    sq = mpmath.sqrt(q)
                    devs = tuple(float(abs(abs(z) - sq) / sq) for z in roots)
                return RootReport(
                    roots=tuple(complex(z) for z in roots),
                    modulus_deviations=devs,
                    max_modulus_deviation=max(devs) if devs else None,
                    precision_bits=precision_bits,
                )
        work *= 2
    raise NoConvergence(
        "root iteration failed residual certification",
        partial=[complex(z) for z in (last_roots or [])],
    )
