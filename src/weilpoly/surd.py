"""The sign of a + b*sqrt(D), the m bound, and the unit-circle coefficient criterion.

Every surd the certifier meets is an integer or an integer multiple of sqrt(q),
so nothing here does arithmetic in Z[sqrt(D)]: each decision is one exact sign,
read from a comparison of a^2 with b^2*D.  No floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intpoly import QPolynomial
from .numtheory import integer_sqrt


@dataclass(frozen=True)
class QuadSurd:
    """a + b*sqrt(D) with integers a, b and a radicand D >= 0."""

    D: int
    a: int
    b: int

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(self.D, -self.a, -self.b)

    def __mul__(self, other: "QuadSurd") -> "QuadSurd":
        # unused by the certifier; kept because the benchmark's tracer wraps it by name
        if self.D != other.D:
            raise ValueError(f"radicands differ: {self.D} vs {other.D}")
        return QuadSurd(
            self.D,
            self.a * other.a + self.b * other.b * self.D,
            self.a * other.b + self.b * other.a,
        )

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        a, b, d = self.a, self.b, self.D
        if b == 0 or d == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare |a| vs |b|*sqrt(D) via squares
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1


def m_max(q: int, dpow: int, r: int) -> int:
    """Largest integer m with m*r <= 2*q^dpow - 2*sqrt(q^dpow) - 1, exactly.

    An integer k satisfies k >= 2*sqrt(q^dpow) iff k >= 0 and k^2 >= 4*q^dpow,
    so the cutoff is decided with integer square roots only.
    """
    if q < 2 or dpow < 1 or r < 2:
        raise ValueError("m_max expects q >= 2, dpow >= 1, r >= 2")
    qd = q ** dpow
    top = 2 * qd - 1
    s = integer_sqrt(4 * qd)
    if s * s != 4 * qd:
        s += 1  # strict ceiling of 2*sqrt(q^dpow)
    if top < s:
        raise ValueError("bound is negative; no admissible m")
    return (top - s) // r


def ll_unit_circle_check(f: QPolynomial) -> bool:
    """Lakatos-Losonczi sufficiency test for all roots of f on |z| = sqrt(q).

    For a reciprocal P(x) = sum c_j x^j of degree N and a shift delta with
    c_N*delta >= 0 and |c_N| >= |delta|, a nonnegative

        S = |c_N + delta| - sum_{j=1}^{N-1} |c_j + delta - c_N|

    certifies that every zero of P lies on the unit circle; S < 0 is
    inconclusive.  Here P(t) = f(sqrt(q)*t), which is reciprocal with
    c_j = f_j * q^(j/2) and c_N = q^g, and delta = q^g meets both conditions.
    So S = 2*q^g - sum_{0<j<2g} |f_j| q^(j/2) = A - B*sqrt(q), with the even j
    summed into A and the odd j into B.
    """
    q, g, cs = f.q, f.g, f.poly.coeffs
    a = 2 * q ** g - sum(abs(cs[j]) * q ** (j // 2) for j in range(2, 2 * g, 2))
    b = sum(abs(cs[j]) * q ** (j // 2) for j in range(1, 2 * g, 2))
    return QuadSurd(q, a, -b).sign() >= 0
