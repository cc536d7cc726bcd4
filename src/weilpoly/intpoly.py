"""Dense univariate polynomials over the integers.

Coefficients are arbitrary-precision Python ints stored low-to-high, so
``coeffs[j]`` is the coefficient of t^j.  Polynomials are immutable; all
operations return new instances.  The canonical text form used by the CLI
and golden files is the comma-separated low-to-high decimal list, e.g.
``"25,5,1,1,1"`` for t^4 + t^3 + t^2 + 5t + 25.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd
from typing import Iterable, Sequence

from .errors import ShapeMismatch


class IntPoly:
    """Immutable dense polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "IntPoly":
        """Parse the canonical comma-separated low-to-high coefficient form."""
        parts = [p.strip() for p in text.split(",")]
        if not parts or parts == [""]:
            raise ValueError("empty coefficient string")
        return cls(int(p) for p in parts)

    def to_string(self) -> str:
        """Canonical comma-separated low-to-high coefficient form."""
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, j: int) -> int:
        """Coefficient of t^j (0 beyond the degree)."""
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    # -- ring operations -----------------------------------------------------

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return IntPoly(out)

    def scale(self, c: int) -> "IntPoly":
        return IntPoly(c * a for a in self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly(j * self.coeffs[j] for j in range(1, len(self.coeffs)))

    # -- content and division --------------------------------------------------

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        c = 0
        for a in self.coeffs:
            c = int_gcd(c, a)
        return c

    def primitive(self) -> "IntPoly":
        """Divide out the content; sign fixed so the leading coefficient is > 0."""
        if not self.coeffs:
            return self
        return self._divide_content(self.content())

    def _divide_content(self, c: int) -> "IntPoly":
        """Divide by the content c, sign fixed so the leading coefficient is > 0."""
        if self.lc < 0:
            c = -c
        return IntPoly(a // c for a in self.coeffs)

    def divmod(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient and remainder over Z.  Raises ValueError when a quotient
        coefficient is not an integer, which a monic divisor never causes."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        d = divisor.degree
        lc = divisor.lc
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if lc != 1:
                c, m = divmod(c, lc)
                if m:
                    raise ValueError("quotient is not an integer polynomial")
            quot[i - d] = c
            for j, b in enumerate(divisor.coeffs):
                rem[i - d + j] -= c * b
        return IntPoly(quot), IntPoly(rem)


def pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """prem(a, b): remainder of lc(b)^(deg a - deg b + 1) * a divided by b."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    da, db = a.degree, b.degree
    if a.is_zero() or da < db:
        return a
    lb = b.lc
    rem = list(a.coeffs)
    e = da - db + 1
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        dr = len(rem) - 1
        if dr < db:
            break
        top = rem[-1]
        k = dr - db
        if lb != 1:
            rem = [lb * c for c in rem]
        for j, bc in enumerate(b.coeffs):
            rem[k + j] -= top * bc
        e -= 1
    if lb == 1 or e == 0:
        return IntPoly(rem)
    return IntPoly(rem).scale(lb ** e)


def remainder_sequence(a: IntPoly, b: IntPoly) -> list[IntPoly]:
    """The signed primitive remainder sequence a, b, r_2, r_3, ... over Z.

    Each r_(i+1) is a positive integer multiple of the exact rational
    remainder -(r_(i-1) mod r_i), which preserves all sign information: the
    pseudo-remainder is negated unless lc(r_i)^(deg r_(i-1) - deg r_i + 1) is
    negative, then divided by its (positive) content.  The sequence stops at
    a constant element or before a zero remainder, so its last element is
    gcd(a, b) up to a factor.
    """
    seq = [a, b]
    while seq[-1].degree > 0:
        a, b = seq[-2], seq[-1]
        rem = pseudo_remainder(a, b)
        if rem.is_zero():
            break
        if b.lc > 0 or (a.degree - b.degree) % 2:  # lc(b)^(deg a - deg b + 1) > 0
            rem = -rem
        c = rem.content()
        seq.append(IntPoly(x // c for x in rem.coeffs))
    return seq


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[t], leading coefficient > 0: the gcd of the contents times the
    primitive last element of the remainder sequence of the primitive parts."""
    if a.is_zero() or b.is_zero():
        return (a or b).primitive()
    ca, cb = a.content(), b.content()
    a, b = a._divide_content(ca), b._divide_content(cb)
    if a.degree < b.degree:
        a, b = b, a
    return remainder_sequence(a, b)[-1].primitive().scale(int_gcd(ca, cb))


def squarefree_part(f: IntPoly) -> IntPoly:
    """The radical f / gcd(f, f'), primitive with positive leading coefficient.

    For monic f the result is the monic product of the distinct irreducible
    factors of f.
    """
    if f.is_zero():
        raise ValueError("radical of zero polynomial")
    if f.degree == 0:
        return IntPoly((1,))
    d = poly_gcd(f, f.derivative())
    if d.degree == 0:
        return f.primitive()
    # by Gauss's lemma the quotient of the primitive parts is integral, and
    # primitive with positive leading coefficient
    quot, rem = f.primitive().divmod(d.primitive())
    if not rem.is_zero():
        raise ValueError("division is not exact")
    return quot


# -- the (g, q) coefficient symmetry -------------------------------------------


@dataclass(frozen=True)
class QPolynomial:
    """A monic degree-2g integer polynomial with the Weil coefficient pairing
    coeff(j) = q^(g-j) * coeff(2g-j) for 0 <= j <= g-1 (so the constant term
    is q^g).  Roots of such polynomials come in pairs (z, q/z)."""

    poly: IntPoly
    g: int
    q: int

    def a(self, j: int) -> int:
        """The upper-half coefficient a_j = coeff(t^(2g-j)), 0 <= j <= g."""
        if not 0 <= j <= self.g:
            raise IndexError(f"a_{j} out of range for g={self.g}")
        return self.poly.coeff(2 * self.g - j)

    @property
    def middle(self) -> int:
        """a_g, the coefficient of t^g."""
        return self.poly.coeff(self.g)


def check_q_symmetry(f: IntPoly, q: int) -> QPolynomial:
    """Validate the paired-coefficient shape and wrap f as a QPolynomial, g = deg f / 2.

    Raises ShapeMismatch (carrying the first violated coefficient index) if
    deg f is not an even 2g >= 2 (index -1), f is not monic, or some pair
    coeff(j) != q^(g-j)*coeff(2g-j)."""
    g = f.degree // 2
    if g < 1 or f.degree % 2:
        raise ShapeMismatch(f"degree {f.degree} is not an even 2g >= 2", index=-1)
    if not f.is_monic():
        raise ShapeMismatch("polynomial is not monic", index=2 * g)
    for j in range(g):
        expected = q ** (g - j) * f.coeff(2 * g - j)
        if f.coeff(j) != expected:
            raise ShapeMismatch(
                f"coeff({j}) = {f.coeff(j)} != q^(g-{j})*coeff({2 * g - j}) = {expected}",
                index=j,
            )
    return QPolynomial(f, g, q)


# -- characteristic/minimal polynomials of powers of the roots --------------------


def power_sums(f: IntPoly, count: int, s: list[int] | None = None) -> list[int]:
    """Newton power sums [s_1, ..., s_count], s_k = sum theta_i^k over the roots
    of the monic polynomial f (exact integers).  A given list s holding a
    prefix of them is extended in place, never shortened, and returned."""
    if not f.is_monic():
        raise ValueError("power_sums expects a monic polynomial")
    n = f.degree
    a = [f.coeff(n - i) for i in range(n + 1)]  # a[0]=1, a[i] coefficient of x^(n-i)
    s = [] if s is None else s
    for k in range(len(s) + 1, count + 1):
        if k <= n:
            acc = -k * a[k]
            for i in range(1, k):
                acc -= a[i] * s[k - i - 1]
        else:
            acc = 0
            for i in range(1, n + 1):
                acc -= a[i] * s[k - i - 1]
        s.append(acc)
    return s


def _monic_from_power_sums(s: Sequence[int], n: int) -> IntPoly:
    """Invert Newton's identities: the monic degree-n polynomial whose roots
    have power sums s[0..n-1] (must be integral; ValueError otherwise)."""
    a = [1]
    for k in range(1, n + 1):
        acc = s[k - 1]
        for i in range(1, k):
            acc += a[i] * s[k - i - 1]
        q, r = divmod(-acc, k)
        if r:
            raise ValueError("power sums are not those of an integer polynomial")
        a.append(q)
    return IntPoly([a[n - j] for j in range(n + 1)])


def char_poly_of_power(f: IntPoly, d: int, s: list[int] | None = None) -> IntPoly:
    """The monic degree-(deg f) polynomial whose roots are theta^d over all
    roots theta of monic f, counted with multiplicity.

    Equals the resultant in y of f(y) and x - y^d (normalized monic), computed
    here exactly through Newton power sums: the k-th power sum of the d-th
    powers is the (dk)-th power sum of the roots of f, read from (and added
    to) the list s, so that a scan over d computes each power sum once.
    """
    if not f.is_monic() or f.degree < 1:
        raise ValueError("char_poly_of_power expects a monic nonconstant polynomial")
    if d < 1:
        raise ValueError("d must be >= 1")
    n = f.degree
    s = power_sums(f, n * d, s)
    return _monic_from_power_sums([s[d * k - 1] for k in range(1, n + 1)], n)


def minimal_poly_of_power(f: IntPoly, d: int, s: list[int] | None = None) -> IntPoly:
    """Radical of char_poly_of_power(f, d, s), monic.

    When f is irreducible this is the minimal polynomial of theta^d for any
    root theta of f; its degree is the degree of the field Q(theta^d).
    """
    c = char_poly_of_power(f, d, s)
    rad = squarefree_part(c)
    if not rad.is_monic():
        raise ValueError("radical of a monic polynomial must be monic")
    return rad

