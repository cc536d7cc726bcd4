"""Elementary number theory: primality, prime powers, totients, primitive roots.

Everything here is exact integer arithmetic on Python ints.  Primality is
deterministic for inputs below 3.3e24 (fixed Miller-Rabin witness set); above
that a 64-round random-base Miller-Rabin is used, with error probability at
most 4^-64.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import NotPrimePower

# Witnesses proven sufficient for all n < 3_317_044_064_679_887_385_961_981,
# which comfortably covers the 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_RANDOM_ROUNDS = 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin_round(n: int, a: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime' for base a."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = [a for a in _MR_WITNESSES if a < n]
    else:
        rng = random.Random(n)  # derandomized per input: repeatable verdicts
        witnesses = [rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS)]
    return all(_miller_rabin_round(n, a) for a in witnesses)


@dataclass(frozen=True)
class PrimePower:
    """q = p^n with p prime and n >= 1."""

    p: int
    n: int


def int_nth_root(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 1, n >= 1, by Newton iteration on ints."""
    if n == 1:
        return x
    r = 1 << (-(-x.bit_length() // n))  # upper-ish start
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    return r


def prime_power_decompose(q: int) -> PrimePower:
    """Write q = p^n with p prime, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} < 2")
    for n in range(q.bit_length(), 0, -1):
        p = int_nth_root(q, n)
        if p ** n == q:
            if is_prime(p):
                return PrimePower(p, n)
            if n == 1:
                break
    raise NotPrimePower(f"{q} is not a prime power")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; adequate at desk scale."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_primitive_root_mod(r: int, n: int) -> bool:
    """True iff r generates the full unit group mod n: gcd(r, n) = 1 and
    r^(phi/l) != 1 mod n for each prime l dividing phi = phi(n)."""
    if n < 2:
        raise ValueError("is_primitive_root_mod expects n >= 2")
    if math.gcd(r, n) != 1:
        return False
    phi = euler_phi(n)
    return all(pow(r, phi // ell, n) != 1 for ell in factorize(phi))


def least_prime_primitive_root(n: int) -> int | None:
    """Smallest prime r that is a primitive root mod n, or None."""
    r = 2
    while r <= max(n, 3) * 2:
        if is_prime(r) and is_primitive_root_mod(r, n):
            return r
        r += 1
    return None


def primes_first(k: int) -> list[int]:
    """The first k primes."""
    out: list[int] = []
    c = 2
    while len(out) < k:
        if is_prime(c):
            out.append(c)
        c += 1
    return out
