"""Polynomial arithmetic over prime fields F_r and an irreducibility test.

A ModPoly stores its prime modulus and a low-to-high coefficient tuple with
every coefficient reduced into [0, r).  Irreducibility is decided by Ben-Or's
test, which stops at the first factor it finds; nothing here factors a
polynomial, so the module is fully deterministic.
"""

from __future__ import annotations

from typing import Iterable

from .intpoly import IntPoly


class ModPoly:
    """Immutable dense polynomial over F_r (r prime)."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs: Iterable[int] = ()):
        if r < 2:
            raise ValueError("modulus must be >= 2")
        cs = [c % r for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_intpoly(cls, f: IntPoly, r: int) -> "ModPoly":
        return cls(r, f.coeffs)

    @classmethod
    def x(cls, r: int) -> "ModPoly":
        return cls(r, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModPoly)
            and self.r == other.r
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.r, self.coeffs))

    def __repr__(self) -> str:
        return f"ModPoly(r={self.r}, coeffs={list(self.coeffs)})"

    def _check(self, other: "ModPoly") -> None:
        if self.r != other.r:
            raise ValueError(f"moduli differ: {self.r} vs {other.r}")

    def __add__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.r
        return ModPoly(self.r, out)

    def __neg__(self) -> "ModPoly":
        return ModPoly(self.r, (-c for c in self.coeffs))

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        return self + (-other)

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ModPoly(self.r, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return ModPoly(self.r, out)

    def scale(self, c: int) -> "ModPoly":
        return ModPoly(self.r, (c * a for a in self.coeffs))

    def monic(self) -> "ModPoly":
        if self.is_zero() or self.lc == 1:
            return self
        inv = pow(self.lc, -1, self.r)
        return self.scale(inv)

    def divmod(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        r = self.r
        d = other.degree
        inv = pow(other.lc, -1, r)
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % r
            if c == 0:
                continue
            q = c * inv % r
            quot[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - q * b) % r
        return ModPoly(r, quot), ModPoly(r, rem)

    def __mod__(self, other: "ModPoly") -> "ModPoly":
        return self.divmod(other)[1]


def ff_gcd(a: ModPoly, b: ModPoly) -> ModPoly:
    """Monic gcd over F_r."""
    if a.r != b.r:
        raise ValueError(f"moduli differ: {a.r} vs {b.r}")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def powmod(base: ModPoly, e: int, modpoly: ModPoly) -> ModPoly:
    """base^e reduced mod modpoly, by square-and-multiply."""
    base._check(modpoly)
    if modpoly.degree < 1:
        raise ValueError("modulus polynomial must be nonconstant")
    if e < 0:
        raise ValueError("negative exponent")
    result = ModPoly(base.r, (1,))
    acc = base % modpoly
    while e:
        if e & 1:
            result = result * acc % modpoly
        acc = acc * acc % modpoly
        e >>= 1
    return result


def is_irreducible_mod(f: ModPoly) -> bool:
    """True iff nonconstant f is irreducible over F_r (Ben-Or's test).

    For d = 1 .. deg(f) // 2, f is reducible iff some gcd(f, x^(r^d) - x) is
    nonconstant.  A reducible f of degree n, including one with a repeated
    factor, has an irreducible factor of some degree k <= n/2, and that factor
    divides x^(r^k) - x.  An irreducible f of degree n divides x^(r^d) - x only
    when n divides d, so it shares no factor with it for any 0 < d < n.  No
    separate squarefree test is needed.
    """
    if f.degree < 1:
        raise ValueError("irreducibility of a constant polynomial")
    x = ModPoly.x(f.r)
    w = x
    for _ in range(f.degree // 2):
        w = powmod(w, f.r, f)
        if ff_gcd(f, w - x).degree > 0:
            return False
    return True
