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

The numeric oracle is deliberately independent of the Sturm route and is
used to cross-check it.  It finds all distinct roots of f by Durand-Kerner
sweeps in fixed-point integer arithmetic, raised to high precision sweep by
sweep, started from double-precision roots that Aberth's iteration finds in
Python complex arithmetic.  It accepts as many distinct roots as the
radical's degree, each with a backward error bounded in integer arithmetic.
The start points decide only how many sweeps the iteration takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, inf, isfinite, isinf, isqrt, pi, sin
from sys import float_info

from .errors import WeilPolyError
from .intpoly import IntPoly, QPolynomial, poly_gcd, remainder_sequence, squarefree_part
from .surd import QuadSurd


def real_weil_transform(f: QPolynomial) -> IntPoly:
    """The degree-g polynomial h with f(t) = t^g * h(t + q/t), exactly.

    h = a_g + sum over 0 <= k < g of a_k * D_(g-k), where D_k is the monic
    degree-k polynomial with D_k(t + q/t) = t^k + (q/t)^k: D_0 = 2, D_1 = x,
    D_k = x*D_(k-1) - q*D_(k-2) (Dickson polynomials).  Clenshaw's recurrence
    sums it without forming any D_k: b_k = a_(g-k) + x*b_(k+1) - q*b_(k+2)
    for k = g, ..., 1, then h = a_g + x*b_1 - 2q*b_2.
    """
    if not isinstance(f, QPolynomial):
        raise ValueError("expected a checked QPolynomial; run check_q_symmetry first")
    g, q = f.g, f.q
    b1: list[int] = []  # b_(k+1), then b_1; coefficients low degree first
    b2: list[int] = []  # b_(k+2), then b_2
    for k in range(g, 0, -1):
        bk = [f.a(g - k)] + b1
        for i, c in enumerate(b2):
            bk[i] -= q * c
        b1, b2 = bk, b1
    h = [f.middle] + b1
    for i, c in enumerate(b2):
        h[i] -= 2 * q * c
    return IntPoly(h)


# -- Sturm machinery -----------------------------------------------------------


def sturm_chain(h: IntPoly) -> list[IntPoly]:
    """Signed remainder chain of (h, h') over Z, remainder_sequence(h, h').

    Each element is a positive integer multiple of the exact rational chain
    element, which preserves all sign information.  The last element is
    gcd(h, h') up to a factor, so it is constant exactly when h is squarefree.
    """
    if h.is_zero():
        raise ValueError("Sturm chain of zero polynomial")
    return remainder_sequence(h, h.derivative()) if h.degree >= 1 else [h]


def horner(coeffs, x: int) -> int:
    """The integer polynomial with coefficients `coeffs` (low degree first) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_at(p: IntPoly, point) -> int:
    """Exact sign of p at a Fraction, +/- math.inf, or a QuadSurd that is an
    integer a or an integer multiple b*sqrt(D)."""
    if isinstance(point, float) and isinf(point):
        if p.is_zero():
            return 0
        s = 1 if p.lc > 0 else -1
        if point < 0 and p.degree % 2 == 1:
            s = -s
        return s
    if isinstance(point, QuadSurd):
        a, b = point.a, point.b
        if a and b:
            raise ValueError(f"{point!r} is neither an integer nor a multiple of sqrt(D)")
        # x = a + b*sqrt(D) has x^2 = a^2 + b^2*D, so p(x) = E(x^2) + x*O(x^2)
        x2 = a * a + b * b * point.D
        even, odd = horner(p.coeffs[0::2], x2), horner(p.coeffs[1::2], x2)
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
        raise ValueError("h vanishes at an interval endpoint")
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_between(chain: list[IntPoly], lo, hi) -> int:
    """Number of distinct real roots in (lo, hi] of h = chain[0], where chain
    is sturm_chain(h) and lo < hi are QuadSurds, Fractions or +/- math.inf.

    Raises ValueError if h is not squarefree (the chain ends in a
    nonconstant gcd(h, h')), or if h vanishes at lo or hi.
    """
    if chain[-1].degree > 0:
        raise ValueError("input must be squarefree")
    return _variations(chain, lo) - _variations(chain, hi)


def _cauchy_bound(h: IntPoly) -> int:
    """Integer B with all real roots of h in (-B, B)."""
    lc = abs(h.lc)
    m = max(abs(c) for c in h.coeffs)
    return 2 + m // lc


def _isolate_root_outside(chain: list[IntPoly], q: int, count: int, side: int) -> tuple[Fraction, Fraction]:
    """Interval with rational endpoints, neither a root, around exactly one
    root x of h = chain[0] with side*x > 2*sqrt(q) (side = 1 above the band,
    -1 below it), or (x, x) for a rational root; chain = sturm_chain(h),
    h(side*2*sqrt(q)) != 0 and h has `count` distinct roots beyond it.  The
    search runs on the mirror t = side*x, where the root bounds and cut points
    are those of h(side*t).  Raises WeilPolyError if `count` is 0, or if a
    loop runs past what the root separation allows (a chain or a count at
    fault)."""
    h = chain[0]
    where = "above 2*sqrt(q)" if side > 0 else "below -2*sqrt(q)"
    if count == 0:
        raise WeilPolyError(f"no root of h {where}")

    def roots_in(lo, hi) -> int:  # distinct roots x of h with side*x in (lo, hi]
        return count_between(chain, *sorted((side * lo, side * hi)))

    # 2^-bits is below the distance between distinct roots of prod = h*(x^2 - 4q),
    # by Mahler's bound sqrt(3) n^(-(n+2)/2) |prod|_2^(1-n), valid for its radical
    prod = (h * IntPoly((-4 * q, 0, 1))).coeffs
    n, norm_sq = len(prod) - 1, sum(c * c for c in prod)
    bits = ((n + 2) * n.bit_length() + (n - 1) * norm_sq.bit_length()) // 2 + 1
    # rational cut t = z in (2*sqrt(q), 2*sqrt(q) + 2^-k]: nearer the band than
    # every root beyond it once k >= bits
    k = 1
    while True:
        z = Fraction(isqrt(4 * q * 4 ** k) + 1, 2 ** k)
        if _sign_at(h, side * z) == 0:
            return side * z, side * z
        if roots_in(z, inf) == count:
            break
        if k >= bits:
            raise WeilPolyError(f"no rational cut between the band and the roots {where}")
        k *= 2
    bound = _cauchy_bound(h)
    lo, hi, left = z, Fraction(bound), count
    for _ in range(bound.bit_length() + bits + 1):
        if left == 1:
            return (lo, hi) if side > 0 else (-hi, -lo)
        mid = (lo + hi) / 2
        if _sign_at(h, side * mid) == 0:
            return side * mid, side * mid
        nearer = roots_in(lo, mid)
        if nearer >= 1:
            hi, left = mid, nearer
        else:
            lo = mid
    raise WeilPolyError(f"bisection did not isolate a root {where}")


@dataclass(frozen=True)
class ModulusCheckResult:
    """Outcome of the exact all-roots-on-circle decision."""

    passed: bool
    witness: dict | None = None


def exact_modulus_check(f: QPolynomial, h: IntPoly | None = None) -> ModulusCheckResult:
    """Decide exactly whether every root of f has modulus sqrt(q).

    Reduces f to the degree-g polynomial h (real_weil_transform(f), or the
    given h when the caller has made it), strips multiplicities (dividing h
    by the last element of its Sturm chain, gcd(h, h')), accepts
    endpoint factors (roots t = +/-sqrt(q), which appear in h as roots at
    +/-2*sqrt(q)), and requires all remaining roots of h to be real and
    strictly inside (-2*sqrt(q), 2*sqrt(q)).  On failure the witness isolates
    an offending root of h (real outside the band) or reports the number of
    nonreal roots.
    """
    q = f.q
    h = real_weil_transform(f) if h is None else h
    chain = sturm_chain(h)
    h0 = h
    if chain[-1].degree > 0:
        h0 = h.divmod(chain[-1].primitive())[0]
    # gcd(h0, x^2 - 4q) is monic and holds the roots of h0 at +/-2*sqrt(q)
    edge_factor = poly_gcd(h0, IntPoly((-4 * q, 0, 1)))
    if edge_factor.degree > 0:
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
    v_neg_inf, v_pos_inf = _variations(chain, -inf), _variations(chain, inf)
    total_real = v_neg_inf - v_pos_inf
    if total_real > inside:
        side, count = (1, v_hi - v_pos_inf) if v_hi > v_pos_inf else (-1, v_neg_inf - v_lo)
        a, b = _isolate_root_outside(chain, q, count, side)
        witness = {
            "kind": "real_root_outside_band",
            "side": "above" if side > 0 else "below",
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


@dataclass(frozen=True)
class RootReport:
    """The distinct complex roots of a polynomial, with modulus diagnostics."""

    roots: tuple[complex, ...]  # distinct, sorted by (|imaginary part|, real part, imaginary part)
    modulus_deviations: tuple[float, ...]  # | |z| - sqrt(q) | / sqrt(q), in the order of roots
    max_modulus_deviation: float
    precision_bits: int  # the working precision at which the certificate passed
    attempts: int  # iterations run, the last at precision_bits


def _seed_roots(f: IntPoly) -> list[complex]:
    """Double-precision starting points for numeric_roots: all roots of f =
    R(t^e), e the gcd of the exponents of f's terms, as the e-th roots of the
    roots of R times the e-th roots of unity.  Aberth's simultaneous iteration
    (O. Aberth, Math. Comp. 27, 1973; D. Bini, Numer. Algorithms 13, 1996)
    finds the roots of R in Python complex arithmetic.

    R is scaled by z = 2^k * w, with 2^k near the geometric mean of its root
    moduli, so that the scaled coefficients fit a float.  Returns only
    finite seeds, possibly none.
    """
    e = gcd(*(i for i, c in enumerate(f.coeffs) if c))
    c, n = f.coeffs[::e], f.degree // e
    k = round((abs(c[0]).bit_length() - abs(c[-1]).bit_length()) / n)
    if abs(k) > 1000 * e:  # 2^(k/e) is outside the float range
        return []
    try:
        # monic in w, low degree first
        a = [float(Fraction(ci, c[-1]) * Fraction(2) ** (k * (i - n))) for i, ci in enumerate(c)]
    except OverflowError:
        return []
    w = [complex(cos(t), sin(t)) for t in (2 * pi * j / n + 0.4 for j in range(n))]
    for _ in range(100):
        largest_move = 0.0
        for i, z in enumerate(w):
            p, dp = 1.0, 0.0  # f and f' at z by Horner
            for coeff in reversed(a[:-1]):
                dp = dp * z + p
                p = p * z + coeff
            s = sum(1 / (z - u) for u in w if u != z)
            den = dp - p * s
            move = p / den if den else 0j
            if isfinite(abs(move)):  # a float overflow leaves z where it is
                w[i] = z - move
                if z:
                    largest_move = max(largest_move, abs(move) / abs(z))
        if largest_move < 1e-14:
            break
    unity = [complex(cos(2 * pi * j / e), sin(2 * pi * j / e)) for j in range(e)]
    seeds = [z ** (1 / e) * 2.0 ** (k / e) * u for z in w for u in unity]
    return [z for z in seeds if isfinite(z.real) and isfinite(z.imag)]


def _fixed_horner(a: list[int], x: int, y: int, bits: int, e: int = 1) -> tuple[int, int]:
    """2^bits * p(z^e), z = (x + iy) / 2^bits and p monic with lower
    coefficients a: z^e by square-and-multiply, then Horner, with floored products."""
    zx, zy = x, y
    for bit in bin(e)[3:]:
        zx, zy = (zx * zx - zy * zy) >> bits, (zx * zy) >> bits - 1
        if bit == "1":
            zx, zy = (zx * x - zy * y) >> bits, (zx * y + zy * x) >> bits
    px, py = 1 << bits, 0
    for c in reversed(a):
        px, py = ((px * zx - py * zy) >> bits) + c, (px * zy + py * zx) >> bits
    return px, py


def _sweep(a: list[int], e: int, roots: list[tuple[int, int]], bits: int) -> int:
    """One Durand-Kerner sweep on p(t) = R(t^e), R monic with lower coefficients
    a, in place; returns the largest squared move."""
    largest = 0
    for i, (x, y) in enumerate(roots):
        (px, py), dx, dy = _fixed_horner(a, x, y, bits, e), 1 << bits, 0
        for u, v in ((x - u, y - v) for u, v in roots if u != x or v != y):
            dx, dy = (dx * u - dy * v) >> bits, (dx * v + dy * u) >> bits
        nd = dx * dx + dy * dy
        if nd:  # else the product underflowed
            cx, cy = ((px * dx + py * dy) << bits) // nd, ((py * dx - px * dy) << bits) // nd
            roots[i] = (x - cx, y - cy)
            largest = max(largest, cx * cx + cy * cy)
    return largest


def _durand_kerner(c: list[int], roots: list[tuple[int, int]], bits: int, tol: int) -> list[tuple[int, int]]:
    """Durand-Kerner sweeps (Durand 1960; Kerner, Numer. Math. 8, 1966) on the
    monic p(t) = R(t^e) with coefficients c over c[-1], e the gcd of p's
    exponents, in fixed point: x + iy is the integer pair (x, y) over 2^k.
    Each root z in turn moves by R(z^e) / d, d the product of the nonzero
    z - w over all the roots w.  The roots enter at k = 128 < bits; one sweep
    runs at each k = 128, 256, ... below bits, the roots shifted up to the
    next k, then sweeps at k = bits until every squared move is below tol, for
    at most bits sweeps: near two close roots each sweep gains only a fraction
    of a bit until they separate, so the cap grows with the precision."""
    e = gcd(*(i for i, ci in enumerate(c) if ci))
    c, roots, k = c[::e], list(roots), 128
    while k < bits:
        _sweep([(ci << k) // c[-1] for ci in c[:-1]], e, roots, k)
        step = min(2 * k, bits) - k
        roots, k = [(x << step, y << step) for x, y in roots], k + step
    a = [(ci << bits) // c[-1] for ci in c[:-1]]
    for _ in range(bits):
        if _sweep(a, e, roots, bits) < tol:
            break
    return roots


def _residual_certified(a: list[int], z: tuple[int, int], bits: int, half: int) -> bool:
    """Whether the monic p of _durand_kerner, rounded down to a, has |p(z)| <=
    2^-half * sum_i |p_i| |z|^i, proved in integers: _fixed_horner's value plus
    a bound on its rounding error (under 4 units a step for the floors and a,
    carried forward by |z|), against a floored lower bound of the sum."""
    lo = isqrt(z[0] ** 2 + z[1] ** 2)  # lo <= |z| * 2^bits < lo + 1
    (px, py), err, den = _fixed_horner(a, *z, bits), 0, 1 << bits
    for c in reversed(a):
        err = ((err * (lo + 1)) >> bits) + 4
        den = ((den * lo) >> bits) + abs(c) - 1  # |c| - 1 <= |p_i| * 2^bits
    return (isqrt(px * px + py * py) + 1 + err) << half <= den


def numeric_roots(f: IntPoly, q: int) -> RootReport:
    """All distinct roots of f, and their deviations from modulus sqrt(q), by
    _durand_kerner on the radical r of f (its sweeps stall on a cluster of equal
    roots) at 3/2 of the working precision, from _seed_roots(r), which change
    the number of sweeps, not the report.  The roots, rounded to multiples of
    2^-work, must be deg r distinct points z, each with |r(z)| <= 2^(-p/2) *
    sum_i |r_i| |z|^i, p = max(128, 2 * bitlength(largest coefficient) + 64),
    else work (first p + 32) doubles; WeilPolyError after four attempts."""
    if f.degree < 1:
        raise ValueError("numeric_roots expects a nonconstant polynomial")
    precision_bits = max(128, 2 * max(abs(c) for c in f.coeffs).bit_length() + 64)  # coefficients reach q^g
    # the roots of a q-symmetric f multiply to q^g, so one has modulus >= sqrt(q)
    if isqrt(abs(q)) > float_info.max:
        raise WeilPolyError("numeric oracle: sqrt(q) is past the float range, and so is a root")
    work = precision_bits + 32
    r = squarefree_part(f)
    seeds = _seed_roots(r)
    seeds += [(0.4 + 0.9j) ** k for k in range(len(seeds), r.degree)]  # mpmath's start points
    start = [tuple((n << 128) // d for n, d in (z.real.as_integer_ratio(), z.imag.as_integer_ratio()))
             for z in map(complex, seeds)]  # at 128 bits, where _durand_kerner takes them
    for attempt in range(1, 5):
        bits, s = work + work // 2, work // 2  # s guard bits
        one = 1 << bits
        a = [(c << bits) // r.lc for c in r.coeffs[:-1]]
        # the guard bits hold rounding noise, which would make the report depend
        # on the seeds; like mpmath's cleanup, rounding zeroes parts below 2^-work/2
        roots = [((x + (1 << s - 1)) >> s << s, (y + (1 << s - 1)) >> s << s)
                 for x, y in _durand_kerner(r.coeffs, start, bits, 1 << 2 * s)]
        if len(set(roots)) == r.degree and all(_residual_certified(a, z, bits, precision_bits // 2) for z in roots):
            roots.sort(key=lambda z: (abs(z[1]), z[0], z[1]))
            # | |z|^2 - q | = | |z| - sqrt(q) | (|z| + sqrt(q)), taken at z / 2^k and q / 4^k,
            # where k = 0 unless q is past the float range
            k = 0 if q <= float_info.max else q.bit_length() // 2
            try:
                zs = tuple(complex(x / one, y / one) for x, y in roots)
                devs = tuple(
                    abs(x * x + y * y - (q << 2 * bits)) / (one**2 << 2 * k) / (sq * (abs(z) / 2**k + sq))
                    for (x, y), z in zip(roots, zs) for sq in [(q / 4**k) ** 0.5]
                )
            except OverflowError:
                raise WeilPolyError("numeric oracle: a certified root is past the float range") from None
            return RootReport(zs, devs, max(devs), work, attempt)
        work *= 2
    raise WeilPolyError("numeric oracle: root iteration failed residual certification")
