import pytest
import sympy
from ddf_oracle import cyclotomic
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.errors import ShapeMismatch
from weilpoly.intpoly import (
    IntPoly,
    char_poly_of_power,
    check_q_symmetry,
    minimal_poly_of_power,
    poly_gcd,
    power_sums,
    squarefree_part,
)
from weilpoly.numtheory import euler_phi


def P(*coeffs_low_to_high):
    return IntPoly(coeffs_low_to_high)


def product(factors):
    """The product of the IntPolys in factors (1 for none)."""
    f = P(1)
    for factor in factors:
        f = f * factor
    return f


def from_roots(roots):
    return product(P(-r, 1) for r in roots)


def evaluate(f, x):
    return sum(c * x ** j for j, c in enumerate(f.coeffs))


def inflate(f, k):
    """f(t^k)."""
    out = [0] * (len(f.coeffs) * k)
    out[::k] = f.coeffs
    return IntPoly(out)


small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=6
).map(IntPoly).filter(lambda p: not p.is_zero())


class TestArithmetic:
    def test_ring_ops(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)  # (t+1)(t-1) = t^2 - 1
        assert P(0, 0, 0, 0, 1).derivative() == P(0, 0, 0, 4)

    def test_normalization(self):
        assert P(1, 2, 0, 0).degree == 1
        assert IntPoly([0, 0]).is_zero()

    def test_string_roundtrip(self):
        f = P(25, 5, 1, 1, 1)
        assert f.to_string() == "25,5,1,1,1"
        assert IntPoly.from_string("25, 5,1,1,1") == f
        with pytest.raises(ValueError):
            IntPoly.from_string("")
        with pytest.raises(ValueError):
            IntPoly.from_string("1,x,3")

    def test_divmod(self):
        # monic and non-monic divisors; a non-integral quotient is refused
        assert P(1, 1, 1).divmod(P(-1, 1)) == (P(2, 1), P(3))
        assert P(-2, -1, 6).divmod(P(1, 2)) == (P(-2, 3), P())
        with pytest.raises(ValueError):
            P(1, 0, 1).divmod(P(1, 2))

    @given(small_polys, small_polys)
    def test_product_evaluates_to_product_of_values(self, a, b):
        # (a*b)(x) = a(x)*b(x) at more integer points than the product's degree
        for x in range(-4, 9):
            assert evaluate(a * b, x) == evaluate(a, x) * evaluate(b, x)


class TestCyclotomic:
    # checks of the tests' sympy-built cyclotomic polynomials, which the
    # simplicity tests compare the closed form in certify_simple with
    def test_fixtures(self):
        assert cyclotomic(5) == P(1, 1, 1, 1, 1)
        assert cyclotomic(1) == P(-1, 1)
        assert cyclotomic(25) == inflate(cyclotomic(5), 5)

    def test_degree_is_phi(self):
        for n in range(1, 201):
            assert cyclotomic(n).degree == euler_phi(n), n

    def test_prime_power_inflation(self):
        for rho in (3, 5, 7):
            for b in (2, 3):
                assert cyclotomic(rho ** b) == inflate(cyclotomic(rho), rho ** (b - 1))


class TestQSymmetry:
    def test_accepts_fixture(self):
        qp = check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5)
        assert (qp.g, qp.q) == (2, 5)
        assert qp.a(1) == 1 and qp.middle == 1

    def test_accepts_degree6_shape(self):
        qp = check_q_symmetry(P(8, 4, 2, 5, 1, 1, 1), 3, 2)
        assert qp.middle == 5

    def test_rejects_bad_constant(self):
        with pytest.raises(ShapeMismatch) as exc:
            check_q_symmetry(P(5, 3, 1), 1, 2)
        assert exc.value.index == 0

    def test_rejects_nonmonic_and_bad_degree(self):
        with pytest.raises(ShapeMismatch):
            check_q_symmetry(P(25, 5, 1, 1, 2), 2, 5)
        with pytest.raises(ShapeMismatch):
            check_q_symmetry(P(25, 5, 1, 1, 1), 3, 5)

    def test_functional_identity(self):
        # the pairing is equivalent to t^(2g) * f(q/t) = q^g * f(t)
        f = P(16, 4, 1, 1, 1)
        g, q = 2, 4
        check_q_symmetry(f, g, q)
        lhs = IntPoly([f.coeff(2 * g - j) * q ** (2 * g - j) for j in range(2 * g + 1)])
        assert lhs == f.scale(q ** g)


class TestPowerSums:
    def test_known_roots(self):
        f = from_roots([1, 2, 3])
        s = power_sums(f, 4)
        assert s == [6, 14, 36, 98]

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=9),
    )
    def test_matches_direct_sums(self, roots, prefix):
        f = from_roots(roots)
        s = power_sums(f, 7)
        for k in range(1, 8):
            assert s[k - 1] == sum(r ** k for r in roots)
        # a given prefix is extended in place, never shortened
        head = power_sums(f, prefix)
        assert power_sums(f, 7, head) is head
        assert head == power_sums(f, max(7, prefix))


class TestCharPolyOfPower:
    def test_identity_power(self):
        f = P(25, 5, 1, 1, 1)
        assert char_poly_of_power(f, 1) == f

    def test_sqrt2_squared(self):
        assert char_poly_of_power(P(-2, 0, 1), 2) == P(4, -4, 1)  # (t-2)^2

    def test_inflated_quintic(self):
        h = P(9765625, 3125, 1, 1, 1)
        f = inflate(h, 5)
        assert char_poly_of_power(f, 5) == product([h] * 5)

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=120)
    def test_matches_root_power_product(self, roots, d):
        # oracle: directly construct prod (x - r^d)
        f = from_roots(roots)
        assert char_poly_of_power(f, d) == from_roots([r ** d for r in roots])


class TestMinimalPolyOfPower:
    def test_fixtures(self):
        f = P(25, 5, 1, 1, 1)
        assert minimal_poly_of_power(f, 1) == f
        assert minimal_poly_of_power(P(-2, 0, 1), 2) == P(-2, 1)
        h = P(9765625, 3125, 1, 1, 1)
        assert minimal_poly_of_power(inflate(h, 5), 5) == h

    def test_degree_drop_detects_subfield(self):
        # roots +/- i sqrt(5): squares are both -5
        f = P(5, 0, 1)
        assert minimal_poly_of_power(f, 2) == P(5, 1)


class TestGcdAndRadical:
    def test_radical_of_product(self):
        f = product([P(-1, 1), P(-1, 1), P(2, 1)])
        assert squarefree_part(f) == P(-1, 1) * P(2, 1)
        # 6(x - 1)^2 (2x + 1)(2 - 3x)^3: non-monic and non-primitive
        f = product([P(-1, 1)] * 2 + [P(1, 2)] + [P(2, -3)] * 3).scale(6)
        assert squarefree_part(f) == P(2, -1, -7, 6)

    def test_radical_of_squarefree_is_self(self):
        f = P(-1, 1) * P(2, 1) * P(0, 1)
        assert squarefree_part(f) == f

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    )
    @settings(max_examples=60)
    def test_radical_strips_multiplicities(self, roots, mults):
        pairs = list(zip(roots, mults))
        f = from_roots([r for r, e in pairs for _ in range(e)])
        assert squarefree_part(f) == from_roots([r for r, _ in pairs])

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(-5, 5), min_size=2, max_size=3).filter(lambda cs: cs[-1]),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(-6, 6).filter(bool),
    )
    @settings(max_examples=80)
    def test_radical_matches_sympy(self, factors, content):
        # non-monic, non-primitive products of repeated factors
        f = product([P(content)] + [IntPoly(cs) for cs, e in factors for _ in range(e)])
        expected = sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"), domain="ZZ").sqf_part()
        assert squarefree_part(f).coeffs == tuple(int(c) for c in reversed(expected.all_coeffs()))

    @given(small_polys, small_polys, small_polys, st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool))
    @settings(max_examples=80)
    def test_gcd_matches_sympy(self, shared, a, b, ca, cb):
        # pairs with a common factor and contents that may share a divisor
        a, b = (shared * a).scale(ca), (shared * b).scale(cb)
        x = sympy.Symbol("x")
        expected = sympy.gcd(*(sympy.Poly(list(reversed(p.coeffs)), x, domain="ZZ") for p in (a, b)))
        assert poly_gcd(a, b).coeffs == tuple(int(c) for c in reversed(expected.all_coeffs()))

    @given(small_polys, small_polys)
    @settings(max_examples=80)
    def test_gcd_divides_both(self, a, b):
        from weilpoly.intpoly import pseudo_remainder

        g = poly_gcd(a, b)
        if g.degree >= 1:
            assert pseudo_remainder(a, g).is_zero()
            assert pseudo_remainder(b, g).is_zero()
