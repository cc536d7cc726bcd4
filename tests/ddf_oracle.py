"""Distinct-degree profiles over F_r: the reference the irreducibility test is
checked against, the cyclotomic polynomials (from sympy, independent of the
package), and the cyclotomic self-test built on them.

Not a test module (pytest does not collect it); tests import it by name.
The profile of a squarefree polynomial is the family of (degree d, number of
irreducible factors of degree d) pairs.  No equal-degree splitting is
performed, so the profile is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy
from sympy.ntheory import n_order

from weilpoly.intpoly import IntPoly
from weilpoly.modpoly import ModPoly, ff_gcd, powmod
from weilpoly.numtheory import euler_phi


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by sympy."""
    phi = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x")))
    return IntPoly(int(c) for c in reversed(phi.all_coeffs()))


def derivative(f: ModPoly) -> ModPoly:
    return ModPoly(f.r, (j * f.coeffs[j] for j in range(1, len(f.coeffs))))


def is_squarefree(f: ModPoly) -> bool:
    """True iff gcd(f, f') is constant."""
    if f.is_zero():
        raise ValueError("squarefree test on zero polynomial")
    return ff_gcd(f, derivative(f)).degree <= 0


@dataclass(frozen=True)
class DegreeProfile:
    """Sorted (factor degree, factor count) pairs of a squarefree polynomial."""

    entries: tuple[tuple[int, int], ...]


def distinct_degree_profile(f: ModPoly) -> DegreeProfile:
    """Distinct-degree factorization profile of a squarefree polynomial.

    Raises ValueError on a polynomial with a repeated factor.  Iterates
    gcd(f, x^(r^d) - x), which extracts the product of all irreducible
    factors of degree exactly d.
    """
    if f.degree < 1:
        raise ValueError("profile of a constant polynomial")
    if not is_squarefree(f):
        raise ValueError("distinct-degree profile requires a squarefree input")
    v = f.monic()
    r = f.r
    x = ModPoly.x(r)
    w = x % v
    entries: list[tuple[int, int]] = []
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        w = powmod(w, r, v)
        g = ff_gcd(v, w - x)
        if g.degree > 0:
            entries.append((d, g.degree // d))
            v = v.divmod(g)[0]
            w = w % v
    if v.degree > 0:
        entries.append((v.degree, 1))
    return DegreeProfile(tuple(entries))


def guerrier_check(n: int, r: int) -> bool:
    """Verify that the n-th cyclotomic polynomial factors mod r into
    phi(n)/ord_n(r) distinct irreducible factors of degree ord_n(r).

    This is a classical theorem, so the check must return True whenever
    r does not divide n; it exists as an executable self-test.
    """
    if n % r == 0:
        raise ValueError(f"{r} divides {n}")
    phi = euler_phi(n)
    order = n_order(r, n) if n >= 2 else 1
    profile = distinct_degree_profile(ModPoly.from_intpoly(cyclotomic(n), r))
    return profile.entries == ((order, phi // order),)
