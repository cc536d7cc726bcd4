"""Reference decisions of absolute simplicity: the references that
weilpoly.engine._absolute_simplicity is checked against.  Neither uses the
package's power scan, its admissible orders or its minimal polynomials.

- absolutely_simple_g2: the dimension-2 coefficient rule.
- least_witness: the least order n >= 2 of a root of unity theta_i/theta_j,
  found among every n with phi(n) <= 2g * max(1, 2g - 2).  That bound is
  complete: Q(zeta_n) lies in Q(theta_i, theta_j), of degree 2g or at most
  2g(2g - 2) over Q.  theta^d drops the degree exactly when some ratio
  theta_i/theta_j != 1 is a root of unity of order dividing d, so the least
  such order is the least dropping d.

Not a test module (pytest does not collect it); tests import it by name.
"""

from __future__ import annotations

import functools

import sympy

from weilpoly.intpoly import QPolynomial


def absolutely_simple_g2(f: QPolynomial) -> bool:
    """Dimension-2 test: a simple ordinary abelian surface is absolutely
    simple iff a_1^2 is not in {0, q + a_2, 2*a_2, 3*a_2 - 3*q}."""
    if f.g != 2:
        raise ValueError(f"g = {f.g}, need 2")
    a1, a2, q = f.a(1), f.a(2), f.q
    return a1 * a1 not in {0, q + a2, 2 * a2, 3 * a2 - 3 * q}


@functools.lru_cache(maxsize=None)
def candidate_orders(g: int) -> tuple[int, ...]:
    """Every n >= 2 with phi(n) <= 2g * max(1, 2g - 2), in increasing order;
    phi(n) >= sqrt(n / 2) bounds the search, and a sieve gives every phi(n)."""
    bound = 2 * g * max(1, 2 * g - 2)
    top = 2 * bound * bound
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return tuple(n for n in range(2, top + 1) if phi[n] <= bound)


@functools.lru_cache(maxsize=None)
def _root_of_unity_mod(n: int) -> tuple[int, int]:
    """(ell, w): a prime ell = 1 mod n past 2^64 and a primitive n-th root of
    unity w mod ell."""
    ell = (2 ** 64 // n + 1) * n + 1
    while not sympy.isprime(ell):
        ell += n
    return ell, pow(sympy.primitive_root(ell), (ell - 1) // n, ell)


def _product_polynomial(coeffs: list[int]) -> list[int]:
    """G, low degree first: the monic polynomial whose roots are the products
    theta_i * theta_j over all ordered pairs of roots of the monic f.  Its
    power sums are the squares of those of f (Newton's identities both ways)."""
    a = coeffs[::-1]  # a[0] = 1, f = sum of a[k] * t^(2g - k)
    deg, big = len(a) - 1, (len(a) - 1) ** 2
    s = [deg]
    for m in range(1, big + 1):
        acc = sum(a[k] * s[m - k] for k in range(1, min(m, deg + 1)))
        s.append(-(acc + m * a[m]) if m <= deg else -acc)
    e = [1]
    for k in range(1, big + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * s[i] ** 2 for i in range(1, k + 1))
        e.append(total // k)
    return [(-1) ** k * e[k] for k in range(big, -1, -1)]


def least_witness(f: QPolynomial) -> int | None:
    """The least order n >= 2 of a root of unity theta_i/theta_j for the
    squarefree Weil polynomial f, or None when no ratio of two roots is one.

    The ratios are the roots of H(x) = G(q*x)/q^(4g^2), G from
    _product_polynomial (q/theta_j is a root whenever theta_j is), so a ratio
    has order n exactly when Phi_n divides G(q*x).  Each candidate n is tested
    first at a primitive n-th root of unity modulo a prime ell = 1 mod n, then,
    if G(q*w) = 0 mod ell, by the exact remainder of G(q*x) by Phi_n."""
    g_coeffs = _product_polynomial(list(f.poly.coeffs))
    q = f.q
    for n in candidate_orders(f.g):
        ell, w = _root_of_unity_mod(n)
        x, acc = q * w % ell, 0
        for c in reversed(g_coeffs):
            acc = (acc * x + c) % ell
        if acc:
            continue
        x = sympy.Symbol("x")
        scaled = sympy.Poly([c * q ** k for k, c in enumerate(g_coeffs)][::-1], x)
        if scaled.rem(sympy.Poly(sympy.cyclotomic_poly(n, x), x)).is_zero:
            return n
    return None
