"""Distinct-degree profiles over F_r: the reference the irreducibility test is
checked against, the cyclotomic polynomials, and the cyclotomic self-test
built on them.  Everything here is computed by sympy, independently of the
package; a polynomial over F_r is a coefficient sequence, low degree first,
as in weilpoly.modpoly.

Not a test module (pytest does not collect it); tests import it by name.
The profile of a squarefree polynomial is the family of (degree d, number of
irreducible factors of degree d) pairs.  No equal-degree splitting is
performed, so the profile is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy
from sympy.ntheory import n_order
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_from_int_poly, gf_monic, gf_sqf_p

from weilpoly.intpoly import IntPoly


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by sympy."""
    phi = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x")))
    return IntPoly(int(c) for c in reversed(phi.all_coeffs()))


def _gf(coeffs, r: int) -> list:
    """Integer coefficients, low degree first, as a sympy polynomial over F_r."""
    return gf_from_int_poly([ZZ(c) for c in reversed(coeffs)], r)


def is_squarefree(coeffs, r: int) -> bool:
    """True iff the nonzero polynomial has no repeated factor over F_r."""
    f = _gf(coeffs, r)
    if not f:
        raise ValueError("squarefree test on zero polynomial")
    return gf_sqf_p(f, r, ZZ)


@dataclass(frozen=True)
class DegreeProfile:
    """Sorted (factor degree, factor count) pairs of a squarefree polynomial."""

    entries: tuple[tuple[int, int], ...]


def distinct_degree_profile(coeffs, r: int) -> DegreeProfile:
    """Distinct-degree factorization profile of a squarefree polynomial over
    F_r, by sympy's distinct-degree factorization.

    Raises ValueError on a constant polynomial or one with a repeated factor.
    """
    f = _gf(coeffs, r)
    if len(f) < 2:
        raise ValueError("profile of a constant polynomial")
    if not gf_sqf_p(f, r, ZZ):
        raise ValueError("distinct-degree profile requires a squarefree input")
    _, monic = gf_monic(f, r, ZZ)
    return DegreeProfile(tuple((d, (len(g) - 1) // d) for g, d in gf_ddf_zassenhaus(monic, r, ZZ)))


def guerrier_check(n: int, r: int) -> bool:
    """Verify that the n-th cyclotomic polynomial factors mod r into
    phi(n)/ord_n(r) distinct irreducible factors of degree ord_n(r).

    This is a classical theorem, so the check must return True whenever
    r does not divide n; it exists as an executable self-test.
    """
    if n % r == 0:
        raise ValueError(f"{r} divides {n}")
    phi = int(sympy.totient(n))
    order = n_order(r, n) if n >= 2 else 1
    profile = distinct_degree_profile(cyclotomic(n).coeffs, r)
    return profile.entries == ((order, phi // order),)
