"""Differential test of the odd-order theorem (engine._absolute_simplicity):
for an ordinary Weil polynomial f of degree 2g, irreducible over Q and mod a
prime r, the least order n of a root of unity theta_i/theta_j is odd, prime
to r, and divides both M_r = (r^(2g) - 1)/(r^(2g/g') - 1), g' the odd part
of g, and r^g + 1; so there is none when g is a power of two, and classify's
scan to 2g^2 decides absolute simplicity when gcd(M_r, r^g + 1) <= 2g^2.

The inputs are seeded random draws with g in {2, 3, 4, 6}: t^g * h(t + q/t)
with h a split totally real polynomial plus a small perturbation, and F(t^3)
for a q^3-Weil polynomial F of the same kind, whose theta^3 drops the degree.
The least order comes from absolute_simplicity_oracle.least_witness, which
tests every n with phi(n) <= 2g * max(1, 2g - 2) and shares no code with the
package's scan.
"""

import random
from collections import Counter
from math import comb, gcd, isqrt

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_irreducible_p

from absolute_simplicity_oracle import least_witness
from weilpoly.engine import DEFAULT_RAW_CERT_PRIMES, classify
from weilpoly.intpoly import IntPoly, check_q_symmetry
from weilpoly.numtheory import primes_first

QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37)


def _weil_from_real(h: list[int], q: int) -> list[int]:
    """t^g * h(t + q/t), low degree first, for h of degree g, low degree first:
    t^g * (t + q/t)^k = t^(g - k) * (t^2 + q)^k."""
    g = len(h) - 1
    f = [0] * (2 * g + 1)
    for k, c in enumerate(h):
        for i in range(k + 1):
            f[g - k + 2 * i] += c * comb(k, i) * q ** (k - i)
    return f


def _perturbed_split(rng: random.Random, g: int, q: int) -> list[int]:
    """A monic h of degree g with g distinct integer roots a, a^2 < 4q, plus
    u + v*x (u alone when g = 1) with u, v in {-1, 0, 1}."""
    top = isqrt(4 * q - 1)
    h = [1]
    for a in rng.sample(range(-top, top + 1), g):
        h = [(h[k - 1] if k else 0) - a * (h[k] if k < len(h) else 0) for k in range(len(h) + 1)]
    for k in range(min(g, 2)):
        h[k] += rng.randint(-1, 1)
    return h


def draws(seed: int, count: int) -> list[tuple[list[int], int]]:
    """count seeded (f, q), f low degree first; a third of the g in {3, 6} are
    F(t^3)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = rng.choices((2, 3, 4, 6), weights=(3, 3, 3, 1))[0]  # a g = 6 scan costs most
        q = rng.choice([q for q in QS if 2 * isqrt(4 * q - 1) + 1 >= g])  # room for g distinct roots
        if g % 3 == 0 and rng.random() < 1 / 3:
            big = _weil_from_real(_perturbed_split(rng, g // 3, q ** 3), q ** 3)
            f = [0] * (2 * g + 1)
            f[::3] = big
        else:
            f = _weil_from_real(_perturbed_split(rng, g, q), q)
        out.append((f, q))
    return out


def _odd_part(g: int) -> int:
    while g % 2 == 0:
        g //= 2
    return g


def _irreducible_mod(coeffs: list[int], r: int) -> bool:
    """Whether the polynomial is irreducible over F_r, by sympy."""
    return gf_irreducible_p(gf_from_int_poly([ZZ(c) for c in reversed(coeffs)], r), r, ZZ)


def _check(seed: int, count: int) -> Counter:
    """Check the theorem at every prime r of the raw certificate's range at
    which f is irreducible, and classify's verdict against the least order;
    count (g, verdict, witness) over the draws that reach absolute
    simplicity."""
    outcomes = Counter()
    for coeffs, q in draws(seed, count):
        f = IntPoly(coeffs)
        rep = classify((f, q))
        if not (rep.is_q_polynomial and rep.ordinary and rep.simple):
            continue
        g = rep.g
        n = least_witness(check_q_symmetry(f, g, q))
        rs = [r for r in primes_first(DEFAULT_RAW_CERT_PRIMES) if _irreducible_mod(coeffs, r)]
        assert rep.simple_r in rs
        for r in rs:
            m_r = (r ** (2 * g) - 1) // (r ** (2 * g // _odd_part(g)) - 1)
            assert n is None or (n % 2 == 1 and n % r != 0 and m_r % n == 0), (coeffs, q, r, n)
            assert n is None or (r ** g + 1) % n == 0, (coeffs, q, r, n)  # phi^g(zeta) = 1/zeta
        r = rep.simple_r
        big_n = gcd((r ** (2 * g) - 1) // (r ** (2 * g // _odd_part(g)) - 1), r ** g + 1)
        if n is not None and n <= 2 * g * g:
            expected = ("certified_no", n)
        elif big_n <= 2 * g * g:  # the scan has passed every divisor of N
            assert n is None, (coeffs, q, n)
            expected = ("certified_yes", None)
        else:  # past the raw scan
            expected = ("inconclusive", None)
        assert (rep.absolutely_simple, rep.witness_d) == expected, (coeffs, q)
        outcomes[g, rep.absolutely_simple, rep.witness_d] += 1
    return outcomes


def test_least_witness_is_odd_prime_to_r_and_divides_m_r():
    outcomes = _check(seed=18, count=600)
    assert outcomes == {(2, "certified_yes", None): 71, (3, "certified_no", 3): 50, (3, "certified_yes", None): 17,
                        (3, "inconclusive", None): 36, (4, "certified_yes", None): 94, (6, "inconclusive", None): 12}


@pytest.mark.slow
def test_least_witness_is_odd_prime_to_r_and_divides_m_r_large():
    outcomes = _check(seed=1018, count=6000)
    assert {(g, verdict) for g, verdict, _ in outcomes} == {(2, "certified_yes"), (3, "certified_no"),
                                                            (3, "certified_yes"), (3, "inconclusive"),
                                                            (4, "certified_yes"), (6, "certified_yes"),
                                                            (6, "inconclusive")}
