import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.errors import HypothesisViolated, NotReciprocal, RadicandMismatch
from weilpoly.surd import (
    LLReport,
    QuadSurd,
    ll_unit_circle_check,
    m_max,
    substitute_sqrt_scale,
)


def S(a, b, d=5):
    return QuadSurd(d, a, b)


class TestQuadSurd:
    def test_perfect_square_folds(self):
        x = QuadSurd(4, 0, 1)
        assert (x.a, x.b) == (2, 0)
        assert QuadSurd(9, 1, -2).a == -5

    def test_ring_ops(self):
        assert S(1, 1) + S(2, -1) == S(3, 0)
        assert S(1, 1) * S(1, -1) == S(-4, 0)

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatch):
            QuadSurd(5, 1, 1) + QuadSurd(7, 1, 1)

    def test_integers_mix_freely(self):
        assert QuadSurd(5, 3, 0) + QuadSurd(7, 0, 1) == QuadSurd(7, 3, 1)

    def test_sign_fixtures(self):
        assert S(9, -2).sign() == 1  # 81 > 20
        assert S(2, -1).sign() == -1  # 4 < 5
        assert S(0, 0).sign() == 0
        assert S(0, 3).sign() == 1
        assert S(-1, 0).sign() == -1

    def test_ordering(self):
        assert (S(0, 1) - S(3, 0)).sign() < 0  # sqrt(5) < 3
        assert (S(2, 0) - S(0, 1)).sign() < 0  # 2 < sqrt(5)

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


class TestSubstitution:
    def test_even_odd_split(self):
        cs = substitute_sqrt_scale((25, 5, 1, 1, 1), 5)
        assert cs[0] == QuadSurd(5, 25, 0)
        assert cs[1] == QuadSurd(5, 0, 5)
        assert cs[2] == QuadSurd(5, 5, 0)
        assert cs[3] == QuadSurd(5, 0, 5)
        assert cs[4] == QuadSurd(5, 25, 0)

    def test_perfect_square_q_collapses_to_integers(self):
        cs = substitute_sqrt_scale((16, 4, 1, 1, 1), 4)
        assert all(c.b == 0 for c in cs)
        assert [c.a for c in cs] == [16, 8, 4, 8, 16]


class TestUnitCircleCheck:
    def test_weil_quartic_passes(self):
        # F(t) = f(sqrt5 t) for f = t^4+t^3+t^2+5t+25; S = 45 - 10*sqrt(5) > 0
        cs = substitute_sqrt_scale((25, 5, 1, 1, 1), 5)
        rep = ll_unit_circle_check(cs, QuadSurd(5, 25, 0))
        assert rep.passed
        assert rep.S == QuadSurd(5, 45, -10)
        # numeric cross-check of the frozen exact value
        assert abs(rep.S.a + rep.S.b * 5 ** 0.5 - (45 - 10 * 5 ** 0.5)) < 1e-9

    def test_boundary_case(self):
        one = QuadSurd(1, 1, 0)
        two = QuadSurd(1, 2, 0)
        rep = ll_unit_circle_check([one, two, one], one)
        assert rep.passed and rep.S.sign() == 0

    def test_off_circle_is_inconclusive(self):
        one = QuadSurd(1, 1, 0)
        rep = ll_unit_circle_check([one, QuadSurd(1, 3, 0), one], one)
        assert not rep.passed
        assert rep.S == QuadSurd(1, -1, 0)

    def test_not_reciprocal(self):
        one = QuadSurd(1, 1, 0)
        with pytest.raises(NotReciprocal):
            ll_unit_circle_check([one, one, QuadSurd(1, 2, 0)], one)

    def test_hypothesis_violations(self):
        one = QuadSurd(1, 1, 0)
        two = QuadSurd(1, 2, 0)
        with pytest.raises(HypothesisViolated):
            ll_unit_circle_check([one, two, one], QuadSurd(1, -1, 0))  # c_N*delta < 0
        with pytest.raises(HypothesisViolated):
            ll_unit_circle_check([one, two, one], two)  # |delta| > |c_N|

    def test_delta_zero_always_allowed(self):
        one = QuadSurd(1, 1, 0)
        rep = ll_unit_circle_check([one, one, one], QuadSurd(1, 0, 0))
        assert isinstance(rep, LLReport)
