"""The benchmark's four workloads and their seeded inputs.

Search workloads are a fixed grid of (rho, b, r, q, m) tuples.  A run walks
the grid one (rho, b, r, q) chunk at a time, each chunk through its own
`engine.search` call, in an order drawn from the seed.  verify_raw walks a
fixed pool of bare (f, q) pairs, also in an order drawn from the seed.  The
seeded order is a Weyl sequence over the inputs in search's own order, so any
prefix of it samples small and large q alike; that keeps a time-limited run's
input mix the same from seed to seed.

Inputs are built here, with the benchmark's own arithmetic, so the program
receives only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd, isqrt

POOL_SEED = 20201127
POOL_SIZE = 3000


@dataclass(frozen=True)
class Workload:
    name: str
    rhos: tuple[int, ...] = ()
    bs: tuple[int, ...] = ()
    rs: tuple[int, ...] | None = None  # None: least prime primitive root mod rho^2
    q_max: int = 0
    numeric: bool = False
    trace_reports: int = 0  # fixed report count of a traced run

    @property
    def is_search(self) -> bool:
        return bool(self.rhos)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", (5, 7), (1, 2), None, 1024, trace_reports=200),
        Workload("abs_scan", (11,), (1,), None, 128, trace_reports=12),
        Workload("numeric", (5,), (2,), (2, 3), 80, numeric=True, trace_reports=8),
        Workload("verify_raw", trace_reports=300),
    )
}


# -- elementary arithmetic, independent of the program ---------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, n) with q = p^n, or None."""
    for p in range(2, q + 1):
        if q % p == 0:
            n = 0
            while q % p == 0:
                q //= p
                n += 1
            return (p, n) if q == 1 and is_prime(p) else None
    return None


def least_primitive_root_prime(rho: int) -> int:
    """Least prime r generating (Z/rho^2)^*."""
    mod, order = rho * rho, rho * (rho - 1)
    for r in range(2, mod):
        if is_prime(r) and r % rho and all(
            pow(r, order // f, mod) != 1 for f in range(2, order + 1) if order % f == 0 and is_prime(f)
        ):
            return r
    raise ValueError(f"no primitive root mod {rho}^2")


def m_max(q: int, dpow: int, r: int) -> int:
    """Largest m with m*r <= 2*q^dpow - 2*sqrt(q^dpow) - 1."""
    qd = q ** dpow
    s = isqrt(4 * qd)
    if s * s != 4 * qd:
        s += 1
    return (2 * qd - 1 - s) // r


def family_coeffs(rho: int, b: int, r: int, q: int, m: int) -> list[int]:
    """Low-to-high coefficients of the paper's polynomial for (rho, b, r, q, m)."""
    d = rho ** (b - 1)
    g = d * (rho - 1) // 2
    c = [0] * (2 * g + 1)
    c[2 * g], c[g], c[0] = 1, m * r + 1, q ** g
    for j in range(d, g, d):
        c[2 * g - j], c[j] = 1, q ** (g - j)
    return c


def weil_random_coeffs(rng: random.Random, g: int, q: int) -> list[int]:
    """A q-symmetric monic polynomial with each a_j inside its Weil bound
    |a_j| <= C(2g, j) q^(j/2); most such draws have a root off the circle."""
    a = [1] + [0] * g
    for j in range(1, g + 1):
        bound = isqrt(comb(2 * g, j) ** 2 * q ** j)
        a[j] = rng.randint(-bound, bound)
    c = [0] * (2 * g + 1)
    for j in range(g + 1):
        c[2 * g - j] = a[j]
    for j in range(g):
        c[j] = q ** (g - j) * a[j]
    return c


# -- seeded orders -------------------------------------------------------------


def spread_order(items: list, seed: int) -> list:
    """All items, visited along a Weyl sequence with a seeded start: consecutive
    picks sit about 0.618*n apart, so every prefix covers the list evenly."""
    n = len(items)
    step = max(1, round(n * 0.6180339887))
    while gcd(step, n) != 1:
        step += 1
    off = random.Random(seed).randrange(n)
    return [items[(off + i * step) % n] for i in range(n)]


def search_chunks(w: Workload) -> list[tuple[int, int, int, int]]:
    """(rho, b, r, q) of every search call that can yield a tuple, in the
    grid's lexicographic order."""
    chunks = []
    for rho in w.rhos:
        for b in w.bs:
            for r in w.rs or (least_primitive_root_prime(rho),):
                chunks += [(rho, b, r, q) for q in range(4, w.q_max + 1) if q % r == 1 and prime_power(q)]
    return chunks


def verify_pool() -> list[tuple[int, list[int], int, tuple[int, int] | None]]:
    """The fixed pool of bare inputs for verify_raw, as entries
    (pool index, coefficients, q, family), family being (rho, b) or None.
    About half are random Weil-bounded q-symmetric polynomials with g in
    {2, 3, 4}; the rest are paper-family polynomials for (rho, b) in
    {(5,1), (7,1), (5,2)}, passed without their tuple."""
    rng = random.Random(POOL_SEED)
    small_q = [q for q in range(4, 65) if prime_power(q)]
    family = {(rho, b): least_primitive_root_prime(rho) for rho, b in ((5, 1), (7, 1), (5, 2))}
    pool = []
    for idx in range(POOL_SIZE):
        if rng.random() < 0.5:
            q = rng.choice(small_q)
            pool.append((idx, weil_random_coeffs(rng, rng.choice((2, 3, 4)), q), q, None))
            continue
        (rho, b), r = rng.choice(sorted(family.items()))
        while True:
            q = rng.randrange(4, 128)
            pp = prime_power(q)
            if pp and q % r == 1 and r % pp[0]:
                break
        p = pp[0]
        forbidden = -pow(r, -1, p) % p
        while True:
            m = rng.randint(0, m_max(q, rho ** (b - 1), r))
            if m % p != forbidden:
                break
        pool.append((idx, family_coeffs(rho, b, r, q, m), q, (rho, b)))
    return pool


def build_inputs(w: Workload, seed: int) -> list:
    """The run's inputs in seeded order: (rho, b, r, q) chunks for a search
    workload, pool entries for verify_raw."""
    if w.is_search:
        return spread_order(search_chunks(w), seed)
    return spread_order(verify_pool(), seed)
