import math

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from weilpoly.errors import NotPrimePower
from weilpoly.numtheory import (
    euler_phi,
    factorize,
    is_prime,
    is_primitive_root_mod,
    least_prime_primitive_root,
    prime_power_decompose,
    primes_first,
)


def _brute_order(r, n):
    v = r % n
    e = 1
    while v != 1:
        v = v * r % n
        e += 1
    return e


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(5)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(3125)  # 5^5

    def test_agrees_with_trial_division_below_10000(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(math.isqrt(n)) + 1))

        for n in range(10000):
            assert is_prime(n) == trial(n), n

    def test_large_known(self):
        assert is_prime(2 ** 61 - 1)  # Mersenne prime
        assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
        assert is_prime(2 ** 89 - 1)  # above the deterministic witness bound


class TestPrimePower:
    def test_fixtures(self):
        assert (prime_power_decompose(8).p, prime_power_decompose(8).n) == (2, 3)
        assert (prime_power_decompose(25).p, prime_power_decompose(25).n) == (5, 2)
        with pytest.raises(NotPrimePower):
            prime_power_decompose(12)
        with pytest.raises(NotPrimePower):
            prime_power_decompose(1)

    def test_big_power(self):
        pp = prime_power_decompose(5 ** 20)
        assert (pp.p, pp.n) == (5, 20)

    @given(st.integers(min_value=2, max_value=10 ** 6))
    def test_roundtrip(self, q):
        try:
            pp = prime_power_decompose(q)
        except NotPrimePower:
            f = factorize(q)
            assert len(f) >= 2
        else:
            assert pp.p ** pp.n == q and is_prime(pp.p)


class TestEulerPhi:
    def test_fixtures(self):
        assert euler_phi(25) == 20
        assert euler_phi(1) == 1
        assert euler_phi(49) == 42

    @given(st.integers(min_value=1, max_value=3000))
    def test_divisor_sum_identity(self, n):
        # sum of phi(d) over divisors d of n equals n
        total = sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0)
        assert total == n


class TestMultiplicativeOrder:
    def test_fixtures(self):
        # (r, n, order of r mod n): r is a primitive root exactly when its order is phi(n)
        for r, n, order in [(2, 25, 20), (3, 49, 42), (2, 5, 4), (4, 25, 10), (7, 25, 4), (2, 49, 21)]:
            assert _brute_order(r, n) == order
            assert is_primitive_root_mod(r, n) == (order == euler_phi(n))

    def test_not_coprime(self):
        # a non-unit has no multiplicative order and is never a primitive root
        for r, n in [(10, 25), (5, 25), (7, 49), (14, 49)]:
            assert not is_primitive_root_mod(r, n)


class TestPrimitiveRoots:
    def test_fixtures(self):
        assert is_primitive_root_mod(2, 25)
        assert is_primitive_root_mod(3, 25)
        assert not is_primitive_root_mod(7, 25)  # 7^4 = 2401 = 1 mod 25

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=2, max_value=500))
    def test_matches_sympy_order(self, r, n):
        # a unit generates the unit group exactly when its order is phi(n)
        expected = math.gcd(r, n) == 1 and sympy.ntheory.n_order(r, n) == sympy.totient(n)
        assert is_primitive_root_mod(r, n) == expected

    def test_least_prime_primitive_root(self):
        assert least_prime_primitive_root(25) == 2
        assert least_prime_primitive_root(49) == 3

    @pytest.mark.parametrize("rho", [5, 7, 11, 13])
    def test_lifting_to_higher_prime_powers(self, rho):
        # a primitive root mod rho^2 stays primitive mod rho^e for e in 1..3
        witnesses = [r for r in range(2, 60) if is_prime(r) and is_primitive_root_mod(r, rho ** 2)]
        assert witnesses
        for r in witnesses[:3]:
            for e in (1, 2, 3):
                n = rho ** e
                assert _brute_order(r, n) == euler_phi(n)


def test_primes_first():
    assert primes_first(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
