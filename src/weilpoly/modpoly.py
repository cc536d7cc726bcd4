"""Polynomial arithmetic over prime fields F_r and an irreducibility test.

A polynomial over F_r is a tuple of coefficients in [0, r), low degree first,
with no trailing zero; the zero polynomial is ().  Every function takes r as
an argument.  Irreducibility is decided by Ben-Or's test, which stops at the
first factor it finds; nothing here factors a polynomial, so the module is
fully deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def reduce_mod(coeffs: Iterable[int], r: int) -> tuple[int, ...]:
    """Integer coefficients, low degree first, as a polynomial over F_r."""
    if r < 2:
        raise ValueError("modulus must be >= 2")
    out = [c % r for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _rem(a: Sequence[int], f: tuple[int, ...], r: int) -> tuple[int, ...]:
    """a mod f over F_r, for integer coefficients a, low degree first; a step
    reads only its leading coefficient mod r, so the rest are reduced at the end."""
    if not f:
        raise ZeroDivisionError("division by zero polynomial")
    d = len(f) - 1
    inv = pow(f[-1], -1, r)
    rem = list(a)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % r * inv % r
        if c:
            for j in range(d):
                rem[i - d + j] -= c * f[j]
    return reduce_mod(rem[:d], r)


def _mulmod(a: tuple[int, ...], b: tuple[int, ...], f: tuple[int, ...], r: int) -> tuple[int, ...]:
    """a * b mod f over F_r, by the schoolbook product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _rem(out, f, r)


def ff_gcd(a: tuple[int, ...], b: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Monic gcd over F_r."""
    while b:
        a, b = b, _rem(a, b, r)
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, r)
    return tuple(c * inv % r for c in a)


def powmod(base: tuple[int, ...], e: int, f: tuple[int, ...], r: int) -> tuple[int, ...]:
    """base^e mod f over F_r, by left-to-right square-and-multiply from the
    reduced base: bit_length(e) - 1 squarings and one product per further set bit."""
    if len(f) < 2:
        raise ValueError("modulus polynomial must be nonconstant")
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return (1,)
    base = _rem(base, f, r)
    acc = base
    for bit in bin(e)[3:]:
        acc = _mulmod(acc, acc, f, r)
        if bit == "1":
            acc = _mulmod(acc, base, f, r)
    return acc


def is_irreducible_mod(coeffs: Iterable[int], r: int) -> bool:
    """True iff the integer polynomial `coeffs` (low degree first), which
    must be nonconstant mod r, is irreducible over F_r (Ben-Or's test).

    For d = 1 .. deg(f) // 2, f is reducible iff some gcd(f, x^(r^d) - x) is
    nonconstant.  A reducible f of degree n, including one with a repeated
    factor, has an irreducible factor of some degree k <= n/2, and that factor
    divides x^(r^k) - x.  An irreducible f of degree n divides x^(r^d) - x only
    when n divides d, so it shares no factor with it for any 0 < d < n.  No
    separate squarefree test is needed.
    """
    f = reduce_mod(coeffs, r)
    if len(f) < 2:
        raise ValueError("irreducibility of a constant polynomial")
    w = (0, 1)
    for _ in range((len(f) - 1) // 2):
        w = powmod(w, r, f, r)
        w_minus_x = list(w) + [0] * (2 - len(w))
        w_minus_x[1] -= 1
        if len(ff_gcd(f, reduce_mod(w_minus_x, r), r)) > 1:
            return False
    return True
