import pytest
import sympy
from ddf_oracle import cyclotomic, distinct_degree_profile, guerrier_check, is_squarefree
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_mul, gf_pow_mod

from weilpoly.intpoly import IntPoly
from weilpoly.modpoly import _mulmod, _rem, ff_gcd, is_irreducible_mod, powmod, reduce_mod
from weilpoly.numtheory import euler_phi, primes_first

X = (0, 1)


def gf(coeffs, r):
    """Low-first integer coefficients as a sympy polynomial over F_r."""
    return gf_from_int_poly([ZZ(c) for c in reversed(coeffs)], r)


def from_gf(f):
    """A sympy polynomial over F_r as a low-first tuple."""
    return tuple(int(c) for c in reversed(f))


class TestReduceMod:
    def test_fixtures(self):
        assert reduce_mod((25, 5, 1, 1, 1), 2) == (1, 1, 1, 1, 1)
        assert reduce_mod((16, 4, 1, 1, 1), 3) == (1, 1, 1, 1, 1)
        assert reduce_mod((4, 2, 2), 2) == ()


class TestArithmetic:
    def test_reduction_into_range(self):
        assert reduce_mod((-1, 7), 5) == (4, 2)

    def test_modulus_below_two(self):
        for r in (1, 0, -3):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                reduce_mod((1, 1), r)

    def test_remainder(self):
        assert _rem((4, 0, 1), (4, 1), 5) == ()  # x^2 - 1 = (x - 1)(x + 1)
        assert _rem((7, 0, 6), (1, 1), 5) == (3,)  # unreduced 6x^2 + 7 at x = -1

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            _rem((1, 1), (), 5)


class TestGcd:
    def test_common_linear_factor(self):
        # gcd(x^2 - 1, x - 1) over F5, returned monic
        assert ff_gcd((4, 0, 1), (4, 1), 5) == (4, 1)

    def test_gcd_with_zero(self):
        assert ff_gcd((2, 4), (), 5) == (3, 1)  # 4x + 2, made monic
        assert ff_gcd((), (), 5) == ()

    def test_gcd_of_equal(self):
        f = (1, 0, 1)  # x^2 + 1 = (x+1)^2 over F2
        assert ff_gcd(f, f, 2) == f


class TestPowmod:
    def test_frobenius_step(self):
        phi5 = reduce_mod(cyclotomic(5).coeffs, 2)
        assert powmod(X, 2, phi5, 2) == (0, 0, 1)

    def test_exponent_one(self):
        assert powmod(X, 1, (1, 2, 1), 7) == X

    def test_x16_mod_phi5_over_f2(self):
        phi5 = reduce_mod(cyclotomic(5).coeffs, 2)
        # brute-force oracle: sixteen successive multiplications by x
        acc = (1,)
        for _ in range(16):
            acc = _mulmod(acc, X, phi5, 2)
        assert acc == X  # ord_5(2) = 4 so x^16 = x^(15+1) = x
        assert powmod(X, 16, phi5, 2) == acc

    def test_frobenius_fixes_after_field_degree(self):
        # for irreducible m of degree d over F_r, x^(r^d) = x mod m
        for r, m in [(2, (1, 1, 1, 1, 1)), (3, (1, 2, 0, 1)), (5, (2, 0, 1))]:
            assert is_irreducible_mod(m, r)
            assert powmod(X, r ** (len(m) - 1), m, r) == _rem(X, m, r)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="modulus polynomial must be nonconstant"):
            powmod(X, 3, (4,), 5)
        with pytest.raises(ValueError, match="negative exponent"):
            powmod(X, -1, (1, 1), 5)

    @given(st.data())
    @settings(max_examples=150)
    def test_powmod_and_gcd_match_sympy(self, data):
        r = data.draw(st.sampled_from((2, 3, 97, 2 ** 61 - 1)))
        n = data.draw(st.integers(1, 32))

        def poly(degree, lead):
            return tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=degree, max_size=degree))) + (lead,)

        f = poly(n, data.draw(st.integers(2, r - 1)) if r > 2 else 1)  # non-monic where F_r allows it
        if data.draw(st.integers(0, 4)):
            base = poly(data.draw(st.integers(n, 2 * n + 1)), data.draw(st.integers(1, r - 1)))
        else:
            base = ()  # the zero polynomial
        e = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 64 - 1)))
        assert powmod(base, e, f, r) == from_gf(gf_pow_mod(gf(base, r), e, gf(f, r), r, ZZ))

        # a common factor, so that the gcd is often nonconstant
        common = gf(poly(data.draw(st.integers(0, 8)), 1), r)
        a = from_gf(gf_mul(common, gf(f, r), r, ZZ))
        b = from_gf(gf_mul(common, gf(base, r), r, ZZ))
        assert ff_gcd(a, b, r) == from_gf(gf_gcd(gf(a, r), gf(b, r), r, ZZ))


class TestSquarefree:
    def test_fixtures(self):
        assert is_squarefree(cyclotomic(25).coeffs, 2)
        assert not is_squarefree((1, 2, 1), 3)  # (x+1)^2
        assert is_squarefree(X, 2)


class TestDistinctDegreeProfile:
    def test_phi25_mod_2(self):
        prof = distinct_degree_profile(cyclotomic(25).coeffs, 2)
        assert prof.entries == ((20, 1),)

    def test_phi5_mod_11(self):
        prof = distinct_degree_profile(cyclotomic(5).coeffs, 11)
        assert prof.entries == ((1, 4),)

    def test_x2_minus_1_mod_5(self):
        assert distinct_degree_profile((4, 0, 1), 5).entries == ((1, 2),)

    def test_requires_squarefree(self):
        with pytest.raises(ValueError, match="distinct-degree profile requires a squarefree input"):
            distinct_degree_profile((1, 2, 1), 3)

    def test_total_degree_invariant(self):
        f = cyclotomic(35)
        prof = distinct_degree_profile(f.coeffs, 2)
        assert sum(d * c for d, c in prof.entries) == f.degree


class TestIrreducibility:
    def test_fixtures(self):
        assert is_irreducible_mod((1, 1, 1, 1, 1), 2)  # phi_5 mod 2
        assert is_irreducible_mod(cyclotomic(25).coeffs, 2)
        assert not is_irreducible_mod((4, 0, 1), 5)  # x^2 - 1
        assert not is_irreducible_mod((1, 2, 3, 2, 1), 2)  # (x^2 + x + 1)^2

    def test_linear_always_irreducible(self):
        assert is_irreducible_mod((3, 1), 7)

    def test_constant_input(self):
        for coeffs in ((5,), (7, 14)):
            with pytest.raises(ValueError, match="irreducibility of a constant polynomial"):
                is_irreducible_mod(coeffs, 7)

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_sympy_and_profile(self, data):
        # products of 1-3 factors, each maybe squared, so that reducible and
        # non-squarefree inputs are as common as irreducible ones; the
        # products are taken over Z, so the coefficients arrive unreduced
        r = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
        f = IntPoly((data.draw(st.integers(1, r - 1)),))
        for _ in range(data.draw(st.sampled_from((1, 1, 2, 3)))):
            cs = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=max(1, 10 - f.degree)))
            g = IntPoly(cs + [1])
            for _ in range(data.draw(st.sampled_from((1, 1, 2)))):
                if f.degree + g.degree <= 10:
                    f = f * g
        verdict = is_irreducible_mod(f.coeffs, r)
        expr = sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"), modulus=r)
        assert verdict == expr.is_irreducible
        squarefree = is_squarefree(f.coeffs, r)
        assert verdict == (squarefree and distinct_degree_profile(f.coeffs, r).entries == ((f.degree, 1),))


class TestGuerrier:
    def test_fixtures(self):
        assert guerrier_check(25, 2)
        assert guerrier_check(5, 11)
        assert guerrier_check(49, 3)

    def test_prime_divides_index(self):
        with pytest.raises(ValueError):
            guerrier_check(25, 5)

    def test_small_sweep(self):
        # desk-scale slice of the full acceptance sweep
        for n in (5, 7, 25):
            rs = [r for r in primes_first(8) if n % r != 0][:5]
            for r in rs:
                assert guerrier_check(n, r), (n, r)

    def test_profile_matches_order_formula(self):
        for n, r in [(7, 2), (7, 3), (25, 3), (49, 2)]:
            prof = distinct_degree_profile(cyclotomic(n).coeffs, r)
            e = sympy.ntheory.n_order(r, n)
            assert prof.entries == ((e, euler_phi(n) // e),)
