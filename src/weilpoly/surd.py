"""Exact arithmetic in Z[sqrt(D)] and the unit-circle coefficient criterion.

A QuadSurd is a + b*sqrt(D) with integer a, b and radicand D >= 0.  When D is
a perfect square the value is folded into the integer part (b = 0), so surd
code transparently degenerates to plain integers whenever q is an even prime
power.  Signs and comparisons are decided exactly by case analysis on
a^2 vs b^2*D; no floating point is involved anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import HypothesisViolated, NotReciprocal, RadicandMismatch
from .numtheory import integer_sqrt


@dataclass(frozen=True)
class QuadSurd:
    """a + b*sqrt(D), canonicalized so that b = 0 when D is a perfect square."""

    D: int
    a: int
    b: int

    def __post_init__(self):
        if self.D < 0:
            raise ValueError("radicand must be >= 0")
        if self.b != 0:
            s = integer_sqrt(self.D)
            if s * s == self.D:
                object.__setattr__(self, "a", self.a + self.b * s)
                object.__setattr__(self, "b", 0)

    def _merge_D(self, other: "QuadSurd") -> int:
        if self.D == other.D:
            return self.D
        if self.b == 0:
            return other.D
        if other.b == 0:
            return self.D
        raise RadicandMismatch(f"radicands differ: {self.D} vs {other.D}")

    def __add__(self, other: "QuadSurd") -> "QuadSurd":
        d = self._merge_D(other)
        return QuadSurd(d, self.a + other.a, self.b + other.b)

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(self.D, -self.a, -self.b)

    def __sub__(self, other: "QuadSurd") -> "QuadSurd":
        return self + (-other)

    def __mul__(self, other: "QuadSurd") -> "QuadSurd":
        d = self._merge_D(other)
        return QuadSurd(
            d,
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
        )

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        a, b, d = self.a, self.b, self.D
        if b == 0:
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

    def abs(self) -> "QuadSurd":
        return -self if self.sign() < 0 else self

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a}{self.b:+}*sqrt({self.D})"


def substitute_sqrt_scale(coeffs: Sequence[int], q: int) -> list[QuadSurd]:
    """Coefficients of F(t) = f(sqrt(q)*t) as elements of Z[sqrt(q)].

    The j-th output is f_j * q^(j/2): an integer when j is even, an integer
    multiple of sqrt(q) when j is odd.
    """
    out = []
    for j, c in enumerate(coeffs):
        if j % 2 == 0:
            out.append(QuadSurd(q, c * q ** (j // 2), 0))
        else:
            out.append(QuadSurd(q, 0, c * q ** (j // 2)))
    return out


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


@dataclass(frozen=True)
class LLReport:
    """Outcome of the reciprocal-coefficient unit-circle criterion."""

    N: int
    delta: QuadSurd
    S: QuadSurd
    passed: bool


def ll_unit_circle_check(F_coeffs: Sequence[QuadSurd], delta: QuadSurd) -> LLReport:
    """Lakatos-Losonczi sufficiency test for all zeros on the unit circle.

    For a reciprocal P(x) = sum c_j x^j of degree N with c_N != 0 and a shift
    delta satisfying c_N*delta >= 0 and |c_N| >= |delta|, a nonnegative

        S = |c_N + delta| - sum_{j=1}^{N-1} |c_j + delta - c_N|

    certifies that every zero of P lies on the unit circle.  S < 0 is
    inconclusive (the criterion is one-directional).  All quantities are
    evaluated exactly in Z[sqrt(D)].
    """
    n = len(F_coeffs) - 1
    if n < 1:
        raise ValueError("need degree >= 1")
    c_n = F_coeffs[-1]
    if c_n.is_zero():
        raise ValueError("leading coefficient is zero")
    for j in range(len(F_coeffs)):
        if (F_coeffs[j] - F_coeffs[n - j]).sign() != 0:
            raise NotReciprocal(f"coefficients {j} and {n - j} differ")
    if (c_n * delta).sign() < 0:
        raise HypothesisViolated("c_N * delta < 0")
    if (c_n.abs() - delta.abs()).sign() < 0:
        raise HypothesisViolated("|c_N| < |delta|")
    s = (c_n + delta).abs()
    for j in range(1, n):
        s = s - (F_coeffs[j] + delta - c_n).abs()
    return LLReport(N=n, delta=delta, S=s, passed=s.sign() >= 0)
