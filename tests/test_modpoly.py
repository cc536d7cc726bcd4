import pytest
import sympy
from ddf_oracle import cyclotomic, distinct_degree_profile, guerrier_check, is_squarefree
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.modpoly import ModPoly, ff_gcd, is_irreducible_mod, powmod
from weilpoly.numtheory import euler_phi, primes_first


def M(r, *coeffs):
    return ModPoly(r, coeffs)


class TestArithmetic:
    def test_reduction_into_range(self):
        assert M(5, -1, 7).coeffs == (4, 2)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="moduli differ: 5 vs 7"):
            M(5, 1, 1) + M(7, 1, 1)

    def test_divmod(self):
        f = M(5, 4, 0, 1)  # x^2 + 4 = x^2 - 1
        q, rem = f.divmod(M(5, 4, 1))  # x - 1
        assert rem.is_zero()
        assert q == M(5, 1, 1)


class TestGcd:
    def test_common_linear_factor(self):
        # gcd(x^2 - 1, x - 1) over F5, returned monic
        assert ff_gcd(M(5, 4, 0, 1), M(5, 4, 1)) == M(5, 4, 1)

    def test_gcd_with_zero(self):
        f = M(5, 2, 4)
        assert ff_gcd(f, ModPoly(5)) == f.monic()

    def test_gcd_of_equal(self):
        f = M(2, 1, 0, 1)  # x^2 + 1 = (x+1)^2 over F2
        assert ff_gcd(f, f) == f


class TestPowmod:
    def test_frobenius_step(self):
        phi5 = ModPoly.from_intpoly(cyclotomic(5), 2)
        assert powmod(ModPoly.x(2), 2, phi5) == M(2, 0, 0, 1)

    def test_exponent_one(self):
        m = M(7, 1, 2, 1)
        assert powmod(ModPoly.x(7), 1, m) == ModPoly.x(7)

    def test_x16_mod_phi5_over_f2(self):
        phi5 = ModPoly.from_intpoly(cyclotomic(5), 2)
        # brute-force oracle: sixteen successive multiplications by x
        acc = ModPoly(2, (1,))
        for _ in range(16):
            acc = acc * ModPoly.x(2) % phi5
        assert acc == ModPoly.x(2)  # ord_5(2) = 4 so x^16 = x^(15+1) = x
        assert powmod(ModPoly.x(2), 16, phi5) == acc

    def test_frobenius_fixes_after_field_degree(self):
        # for irreducible m of degree d over F_r, x^(r^d) = x mod m
        for r, coeffs in [(2, (1, 1, 1, 1, 1)), (3, (1, 2, 0, 1)), (5, (2, 0, 1))]:
            m = ModPoly(r, coeffs)
            assert is_irreducible_mod(m)
            assert powmod(ModPoly.x(r), r ** m.degree, m) == ModPoly.x(r) % m


class TestSquarefree:
    def test_fixtures(self):
        assert is_squarefree(ModPoly.from_intpoly(cyclotomic(25), 2))
        assert not is_squarefree(M(3, 1, 2, 1))  # (x+1)^2
        assert is_squarefree(M(2, 0, 1))


class TestDistinctDegreeProfile:
    def test_phi25_mod_2(self):
        prof = distinct_degree_profile(ModPoly.from_intpoly(cyclotomic(25), 2))
        assert prof.entries == ((20, 1),)

    def test_phi5_mod_11(self):
        prof = distinct_degree_profile(ModPoly.from_intpoly(cyclotomic(5), 11))
        assert prof.entries == ((1, 4),)

    def test_x2_minus_1_mod_5(self):
        assert distinct_degree_profile(M(5, 4, 0, 1)).entries == ((1, 2),)

    def test_requires_squarefree(self):
        with pytest.raises(ValueError, match="distinct-degree profile requires a squarefree input"):
            distinct_degree_profile(M(3, 1, 2, 1))

    def test_total_degree_invariant(self):
        f = ModPoly.from_intpoly(cyclotomic(35), 2)
        prof = distinct_degree_profile(f)
        assert sum(d * c for d, c in prof.entries) == f.degree


class TestIrreducibility:
    def test_fixtures(self):
        assert is_irreducible_mod(M(2, 1, 1, 1, 1, 1))  # phi_5 mod 2
        assert is_irreducible_mod(ModPoly.from_intpoly(cyclotomic(25), 2))
        assert not is_irreducible_mod(M(5, 4, 0, 1))  # x^2 - 1
        assert not is_irreducible_mod(M(2, 1, 1, 1) * M(2, 1, 1, 1))  # (x^2 + x + 1)^2

    def test_linear_always_irreducible(self):
        assert is_irreducible_mod(M(7, 3, 1))

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_sympy_and_profile(self, data):
        # products of 1-3 factors, each maybe squared, so that reducible and
        # non-squarefree inputs are as common as irreducible ones
        r = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
        f = ModPoly(r, (data.draw(st.integers(1, r - 1)),))
        for _ in range(data.draw(st.sampled_from((1, 1, 2, 3)))):
            cs = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=max(1, 10 - f.degree)))
            g = ModPoly(r, cs + [1])
            for _ in range(data.draw(st.sampled_from((1, 1, 2)))):
                if f.degree + g.degree <= 10:
                    f = f * g
        verdict = is_irreducible_mod(f)
        expr = sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"), modulus=r)
        assert verdict == expr.is_irreducible
        assert verdict == (is_squarefree(f) and distinct_degree_profile(f).entries == ((f.degree, 1),))


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
            prof = distinct_degree_profile(ModPoly.from_intpoly(cyclotomic(n), r))
            e = sympy.ntheory.n_order(r, n)
            assert prof.entries == ((e, euler_phi(n) // e),)
