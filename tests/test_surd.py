import math

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilpoly.intpoly import IntPoly, check_q_symmetry
from weilpoly.surd import QuadSurd, ll_unit_circle_check, m_max


def S(a, b, d=5):
    return QuadSurd(d, a, b)


class TestQuadSurd:
    def test_ring_ops(self):
        assert S(1, 1) * S(1, -1) == S(-4, 0)

    def test_radicand_mismatch(self):
        with pytest.raises(ValueError):
            QuadSurd(5, 1, 1) * QuadSurd(7, 1, 1)

    def test_sign_fixtures(self):
        assert S(9, -2).sign() == 1  # 81 > 20
        assert S(2, -1).sign() == -1  # 4 < 5
        assert S(0, 0).sign() == 0
        assert S(0, 3).sign() == 1
        assert S(-1, 0).sign() == -1

    def test_ordering(self):
        assert S(-3, 1).sign() < 0  # sqrt(5) < 3
        assert S(2, -1).sign() < 0  # 2 < sqrt(5)
        assert QuadSurd(9, -6, 2).sign() == 0  # 2*sqrt(9) = 6, no folding needed
        assert QuadSurd(4, 5, -2).sign() > 0  # 5 > 2*sqrt(4)

    @given(
        st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
        st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
        st.integers(min_value=0, max_value=2 ** 32),
    )
    @settings(max_examples=1000)
    def test_sign_matches_high_precision_float(self, a, b, d):
        # a nonzero a + b*sqrt(d) at these sizes has |value| >= 2^-98, so a
        # 300-bit evaluation separates zero from nonzero with a wide margin
        x = QuadSurd(d, a, b)
        with mpmath.workprec(300):
            v = mpmath.mpf(a) + mpmath.mpf(b) * mpmath.sqrt(d)
            if abs(v) < mpmath.mpf(2) ** -150:
                assert x.sign() == 0
            else:
                assert x.sign() == (1 if v > 0 else -1)


class TestMMax:
    def test_fixtures(self):
        assert m_max(5, 1, 2) == 2  # bound (9 - 2*sqrt5)/2 ~ 2.26
        assert m_max(4, 1, 3) == 1  # bound exactly 1
        assert m_max(9, 1, 2) == 5  # bound 5.5

    @staticmethod
    def _qualifies(m, q, d, r):
        # the exact admissibility predicate: m*r <= 2q^d - 2 sqrt(q^d) - 1
        lhs = 2 * q ** d - 1 - m * r
        return lhs >= 0 and lhs * lhs >= 4 * q ** d

    @given(
        st.integers(min_value=4, max_value=10 ** 6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=300)
    def test_maximality(self, q, d, r):
        m = m_max(q, d, r)
        assert m >= 0
        assert self._qualifies(m, q, d, r)
        assert not self._qualifies(m + 1, q, d, r)


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(sympy.factorint(q)) == 1]


@st.composite
def weil_shaped(draw):
    """A q-symmetric f of degree 2g <= 8 with |a_k| <= 2*q^(k/2)/g + 1, where
    the criterion gives both answers (about 70% pass)."""
    g = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.sampled_from(PRIME_POWERS_TO_64))
    bounds = [2 * math.isqrt(q ** k) // g + 1 for k in range(1, g + 1)]
    upper = [draw(st.integers(-bound, bound)) for bound in bounds]
    coeffs = [0] * (2 * g + 1)
    coeffs[2 * g], coeffs[0] = 1, q ** g
    for j in range(1, g + 1):
        coeffs[2 * g - j] = upper[j - 1]
        coeffs[j] = q ** (g - j) * upper[j - 1]
    return check_q_symmetry(IntPoly(coeffs), q)


def textbook_sum(f):
    """The Lakatos-Losonczi sum S for P(t) = f(sqrt(q)*t) with delta = q^g,
    written out as stated and evaluated by sympy."""
    c = [f_j * sympy.sqrt(f.q) ** j for j, f_j in enumerate(f.poly.coeffs)]
    n, delta = len(c) - 1, sympy.Integer(f.q) ** f.g
    assert all(sympy.simplify(c[j] - c[n - j]) == 0 for j in range(n + 1))  # reciprocal
    assert c[n] * delta >= 0 and abs(c[n]) >= abs(delta)  # the shift is admissible
    return abs(c[n] + delta) - sum(abs(c[j] + delta - c[n]) for j in range(1, n))


class TestUnitCircleCheck:
    def test_weil_quartic_passes(self):
        # F(t) = f(sqrt5 t) for f = t^4+t^3+t^2+5t+25; S = 45 - 10*sqrt(5) > 0
        f = check_q_symmetry(IntPoly((25, 5, 1, 1, 1)), 5)
        assert sympy.simplify(textbook_sum(f) - (45 - 10 * sympy.sqrt(5))) == 0
        assert ll_unit_circle_check(f)

    def test_boundary_case(self):
        # (t + 1)^2 with q = 1 is P = [1, 2, 1] with delta = 1: S = 2 - 2 = 0
        assert ll_unit_circle_check(check_q_symmetry(IntPoly((1, 2, 1)), 1))

    def test_off_circle_is_inconclusive(self):
        # t^2 + 3t + 1 with q = 1: S = 2 - 3 < 0, and its real roots are off the circle
        assert not ll_unit_circle_check(check_q_symmetry(IntPoly((1, 3, 1)), 1))

    @given(weil_shaped())
    @example(check_q_symmetry(IntPoly((4, 4, 1)), 4))  # (t + 2)^2: S = 0
    @example(check_q_symmetry(IntPoly((4, 5, 1)), 4))  # S = 8 - 5*2 < 0
    @settings(max_examples=150, deadline=None)
    def test_matches_textbook_criterion(self, f):
        assert ll_unit_circle_check(f) == bool(textbook_sum(f) >= 0)
