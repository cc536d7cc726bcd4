"""The numeric oracle's plain iteration: the reference that
weilpoly.analysis.numeric_roots is checked against.  Every Durand-Kerner sweep
runs at the full iteration precision, on the whole radical r of f, from
Aberth's double-precision seeds on r itself; nothing uses the form
r(t) = R(t^e) or a precision ramp.  The radical, the precisions, the rounding,
the stopping rule and the certificate are those of numeric_roots, so the two
must return equal RootReports.

Not a test module (pytest does not collect it); tests import it by name.
"""

from __future__ import annotations

from fractions import Fraction
from sys import float_info

from weilpoly.analysis import RootReport, _residual_certified, _seed_roots
from weilpoly.errors import WeilPolyError
from weilpoly.intpoly import IntPoly, squarefree_part


def _horner(a: list[int], x: int, y: int, bits: int) -> tuple[int, int]:
    px, py = 1 << bits, 0
    for c in reversed(a):
        px, py = ((px * x - py * y) >> bits) + c, (px * y + py * x) >> bits
    return px, py


def _durand_kerner(a: list[int], roots: list[tuple[int, int]], bits: int, tol: int) -> list[tuple[int, int]]:
    for _ in range(bits):
        largest = 0
        for i, (x, y) in enumerate(roots):
            (px, py), dx, dy = _horner(a, x, y, bits), 1 << bits, 0
            for u, v in ((x - u, y - v) for u, v in roots if u != x or v != y):
                dx, dy = (dx * u - dy * v) >> bits, (dx * v + dy * u) >> bits
            nd = dx * dx + dy * dy
            if nd:
                cx, cy = ((px * dx + py * dy) << bits) // nd, ((py * dx - px * dy) << bits) // nd
                roots[i] = (x - cx, y - cy)
                largest = max(largest, cx * cx + cy * cy)
        if largest < tol:
            break
    return roots


def plain_numeric_roots(f: IntPoly, q: int) -> RootReport:
    """numeric_roots(f, q) by full-precision sweeps on r."""
    precision_bits = max(128, 2 * max(abs(c) for c in f.coeffs).bit_length() + 64)
    work = precision_bits + 32
    r = squarefree_part(f)
    seeds = _seed_roots(r)
    seeds += [(0.4 + 0.9j) ** k for k in range(len(seeds), r.degree)]
    for attempt in range(1, 5):
        bits, s = work + work // 2, work // 2
        one = 1 << bits
        a = [(c << bits) // r.lc for c in r.coeffs[:-1]]
        start = [tuple(int(Fraction(t) * one) for t in (z.real, z.imag)) for z in map(complex, seeds)]
        roots = [((x + (1 << s - 1)) >> s << s, (y + (1 << s - 1)) >> s << s)
                 for x, y in _durand_kerner(a, start, bits, 1 << 2 * s)]
        if len(set(roots)) == r.degree and all(_residual_certified(a, z, bits, precision_bits // 2) for z in roots):
            roots.sort(key=lambda z: (abs(z[1]), z[0], z[1]))
            zs = tuple(complex(x / one, y / one) for x, y in roots)
            k = 0 if q <= float_info.max else q.bit_length() // 2  # z / 2^k and q / 4^k fit a float
            sq = (q / 4**k) ** 0.5
            devs = tuple(
                abs(x * x + y * y - (q << 2 * bits)) / (one**2 << 2 * k) / (sq * (abs(z) / 2**k + sq))
                for (x, y), z in zip(roots, zs)
            )
            return RootReport(zs, devs, max(devs), work, attempt)
        work *= 2
    raise WeilPolyError("numeric oracle: root iteration failed residual certification")
