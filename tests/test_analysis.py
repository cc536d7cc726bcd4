import hashlib
import itertools
import json
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilpoly import analysis
from weilpoly.analysis import (
    NEG_INF,
    POS_INF,
    _isolate_root_above,
    count_between,
    exact_modulus_check,
    numeric_roots,
    real_weil_transform,
    sturm_chain,
)
from weilpoly.errors import EndpointRoot, NotSquarefree, WeilPolyError
from weilpoly.intpoly import IntPoly, check_q_symmetry, squarefree_part
from weilpoly.surd import QuadSurd


def P(*coeffs):
    return IntPoly(coeffs)


def reconstruct_symmetric(h, g, q):
    """Expand t^g * h(t + q/t) back into a polynomial in t."""
    shifted = P(q, 0, 1)  # t^2 + q
    acc = IntPoly.zero()
    for k, c in enumerate(h.coeffs):
        acc = acc + (shifted ** k).scale(c) * IntPoly((0,) * (g - k) + (1,))
    return acc


def eval_fraction(f, x):
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def real_root_count(h):
    return count_between(sturm_chain(h), NEG_INF, POS_INF)


def symmetric_poly(g, q, upper):
    """Build the degree-2g polynomial with upper coefficients a_1..a_g."""
    coeffs = [0] * (2 * g + 1)
    coeffs[2 * g] = 1
    coeffs[0] = q ** g
    for j in range(1, g):
        coeffs[2 * g - j] = upper[j - 1]
        coeffs[j] = q ** (g - j) * upper[j - 1]
    coeffs[g] = upper[g - 1]
    return check_q_symmetry(IntPoly(coeffs), g, q)


symmetric_inputs = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.sampled_from([2, 3, 4, 5, 8, 9]),
    st.lists(st.integers(min_value=-10, max_value=10), min_size=8, max_size=8),
)


class TestRealWeilTransform:
    def test_fixture_quartic(self):
        f = check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5)
        assert real_weil_transform(f).h == P(-9, 1, 1)

    def test_minimal_shape(self):
        f = check_q_symmetry(P(7, 0, 1), 1, 7)
        assert real_weil_transform(f).h == P(0, 1)

    def test_product_of_conjugate_quadratics(self):
        # (t^2 - t + 2)(t^2 + t + 2) = t^4 + 3t^2 + 4
        f = check_q_symmetry(P(4, 0, 3, 0, 1), 2, 2)
        assert real_weil_transform(f).h == P(-1, 0, 1)

    @given(symmetric_inputs)
    @settings(max_examples=150)
    def test_roundtrip_identity(self, data):
        g, q, upper = data
        f = symmetric_poly(g, q, upper[:g])
        h = real_weil_transform(f).h
        assert reconstruct_symmetric(h, g, q) == f.poly


class TestSturmCounting:
    def test_fixtures(self):
        chain = sturm_chain(P(-2, 0, 1))
        assert count_between(chain, QuadSurd(2, 0, 0), QuadSurd(2, 2, 0)) == 1
        # roots of x^2 + x - 9 are (-1 +/- sqrt(37))/2 ~ 2.54, -3.54
        chain = sturm_chain(P(-9, 1, 1))
        assert count_between(chain, QuadSurd(5, 0, -2), QuadSurd(5, 0, 2)) == 2
        # roots +/-3 lie outside +/-2*sqrt(2)
        chain = sturm_chain(P(-9, 0, 1))
        assert count_between(chain, QuadSurd(2, 0, -2), QuadSurd(2, 0, 2)) == 0

    def test_endpoint_roots_reported(self):
        chain = sturm_chain(P(-1, 0, 1))
        with pytest.raises(EndpointRoot):
            count_between(chain, QuadSurd(1, -1, 0), QuadSurd(1, 1, 0))

    def test_not_squarefree(self):
        chain = sturm_chain(P(1, 2, 1))
        with pytest.raises(NotSquarefree):
            count_between(chain, QuadSurd(1, -5, 0), QuadSurd(1, 5, 0))

    def test_count_real_roots_fixture(self):
        assert real_root_count(P(-9, 1, 1)) == 2
        assert real_root_count(P(1, 0, 1)) == 0
        assert real_root_count(P(0, -6, 1, 1)) == 3  # x(x^2+x-6) = x(x+3)(x-2)

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=9))
    @settings(max_examples=150)
    def test_real_root_count_matches_numeric_oracle(self, coeffs):
        h = IntPoly(coeffs)
        if h.degree < 1:
            return
        h = squarefree_part(h)
        if h.degree < 1:
            return
        exact = real_root_count(h)
        with mpmath.workprec(200):
            roots = mpmath.polyroots(list(reversed(h.coeffs)), maxsteps=100, extraprec=100)
            numeric = sum(1 for z in roots if abs(mpmath.im(z)) < mpmath.mpf(2) ** -40)
        assert exact == numeric

    @given(
        st.lists(st.integers(min_value=-10, max_value=10), min_size=2, max_size=7),
        st.sampled_from([2, 3, 4, 5, 8, 9]),
    )
    @example([-16, 0, 1], 4)  # roots +/-4 = +/-2*sqrt(4), on the band's edges
    @example([-8, 0, 1], 2)  # roots +/-2*sqrt(2)
    @example([24, -2, -1], 9)  # roots -6 (an edge) and 4
    @settings(max_examples=120)
    def test_counts_match_sympy_real_roots(self, coeffs, q):
        # sympy's exact real roots; each is placed against the band by the
        # exact sign of r^2 - 4q: negative inside, zero on an endpoint
        h = IntPoly(coeffs)
        if h.degree < 1:
            return
        x = sympy.Symbol("x")
        roots = set(sympy.real_roots(sympy.Poly(list(reversed(h.coeffs)), x)))
        signs = [sympy.sign(sympy.expand(r ** 2 - 4 * q)) for r in roots]
        assert set(signs) <= {-1, 0, 1}
        chain = sturm_chain(squarefree_part(h))
        assert count_between(chain, NEG_INF, POS_INF) == len(roots)
        edge = QuadSurd(q, 0, 2)
        if 0 in signs:
            with pytest.raises(EndpointRoot):
                count_between(chain, -edge, edge)
        else:
            assert count_between(chain, -edge, edge) == signs.count(-1)


class TestExactModulusCheck:
    def test_degree6_rejection_with_real_root_witness(self):
        f = check_q_symmetry(P(8, 4, 2, 5, 1, 1, 1), 3, 2)
        res = exact_modulus_check(f)
        assert not res.passed
        assert res.witness["kind"] == "real_root_outside_band"
        assert res.witness["side"] == "below"

    def test_q8_quartic_accepted(self):
        f = check_q_symmetry(P(64, 16, 2, 2, 1), 2, 8)
        assert exact_modulus_check(f).passed

    def test_constructed_quartic_accepted(self):
        f = check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5)
        assert exact_modulus_check(f).passed

    def test_double_real_root_at_sqrt_q(self):
        # (t^2 - 5)^2: both roots +/-sqrt(5), modulus sqrt(5)
        f = check_q_symmetry(P(25, 0, -10, 0, 1), 2, 5)
        assert exact_modulus_check(f).passed

    def test_endpoint_root_with_square_q(self):
        # (t - 3)^2 (t^2 + 5t + 9) over q = 9: all roots have modulus 3
        f = check_q_symmetry(P(81, -9, -12, -1, 1), 2, 9)
        assert exact_modulus_check(f).passed

    def test_nonreal_transform_witness(self):
        # h = x^2 + 10 has no real roots: f roots form off-circle quadruples
        f = check_q_symmetry(P(25, 0, 20, 0, 1), 2, 5)
        res = exact_modulus_check(f)
        assert not res.passed
        assert res.witness["kind"] == "nonreal_roots"

    def test_real_root_above_band(self):
        # a_1 = -5 pushes a real pair beyond +2*sqrt(q)
        f = symmetric_poly(2, 5, [-5, 1])
        res = exact_modulus_check(f)
        assert not res.passed
        assert res.witness["side"] == "above"
        lo, hi = res.witness["interval"]
        h = real_weil_transform(f).h
        # the isolating interval contains exactly one sign change of h
        assert (eval_fraction(h, Fraction(lo)) > 0) != (eval_fraction(h, Fraction(hi)) > 0)

    def test_chain_evaluated_once_at_the_band_edge(self, monkeypatch):
        # the above-band rejection of test_real_root_above_band takes the
        # variations at 2*sqrt(q) once, and reuses them to isolate the root
        points = []
        variations = analysis._variations

        def spy(chain, point):
            points.append(point)
            return variations(chain, point)

        monkeypatch.setattr(analysis, "_variations", spy)
        res = exact_modulus_check(symmetric_poly(2, 5, [-5, 1]))
        assert res.witness["side"] == "above"
        assert points.count(QuadSurd(5, 0, 2)) == 1

    def test_isolation_needs_a_root_above_the_band(self):
        # roots +/-1 lie inside +/-2*sqrt(5): there is nothing to isolate
        with pytest.raises(WeilPolyError):
            _isolate_root_above(sturm_chain(P(-1, 0, 1)), 5, 0)

    def test_isolation_stops_on_a_lying_chain(self, monkeypatch):
        # (x - 5)(x - 6) has two roots above 2*sqrt(5); a count that always
        # claims one root can never be satisfied, and must end in an error
        chain = sturm_chain(P(30, -11, 1))
        monkeypatch.setattr(analysis, "count_between", lambda chain, lo, hi: 1)
        with pytest.raises(WeilPolyError):
            _isolate_root_above(chain, 5, 2)

    def test_witness_golden(self):
        # every verdict and witness over 1,965 small inputs (706 passes, 585
        # above-band, 572 below-band and 102 nonreal rejections), pinned
        lines = []
        for g, qs, bound in ((2, (2, 5, 9), 6), (3, (3, 4), 4)):
            for q in qs:
                for upper in itertools.product(range(-bound, bound + 1), repeat=g):
                    res = exact_modulus_check(symmetric_poly(g, q, upper))
                    record = [g, q, list(upper), res.passed, res.witness]
                    lines.append(json.dumps(record, sort_keys=True) + "\n")
        assert len(lines) == 1965
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "6a905c87f0280c00fe20f75ebcf878ecfe2c17e8720383cb4a36c3e46846ba1c"


class TestNumericRoots:
    def test_sqrt2(self):
        rep = numeric_roots(P(-2, 0, 1), 128, q=2)
        assert rep.max_modulus_deviation < 1e-30

    def test_constructed_quartic(self):
        rep = numeric_roots(P(25, 5, 1, 1, 1), 128, q=5)
        assert rep.max_modulus_deviation < 1e-12

    def test_degree6_counterexample_root_split(self):
        rep = numeric_roots(P(8, 4, 2, 5, 1, 1, 1), 128, q=2)
        on_circle = [d for d in rep.modulus_deviations if d < 1e-9]
        off_circle = [d for d in rep.modulus_deviations if d > 0.1]
        assert len(on_circle) == 4
        assert len(off_circle) == 2
        # the off-circle roots are the real ones
        real = [z for z in rep.roots if z.imag == 0]
        assert len(real) == 2

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            numeric_roots(P(-2, 0, 1), 32)

    @given(symmetric_inputs)
    @settings(max_examples=60)
    def test_exact_and_numeric_agree(self, data):
        g, q, upper = data
        f = symmetric_poly(g, q, upper[:g])
        exact = exact_modulus_check(f).passed
        rep = numeric_roots(f.poly, 128, q=q)
        assert exact == (rep.max_modulus_deviation < 1e-9)

    @given(symmetric_inputs)
    @settings(max_examples=80)
    def test_unit_circle_pass_implies_exact_pass(self, data):
        # the coefficient criterion is sufficient, never contradicts Sturm
        from weilpoly.surd import ll_unit_circle_check

        g, q, upper = data
        f = symmetric_poly(g, q, upper[:g])
        if ll_unit_circle_check(f):
            assert exact_modulus_check(f).passed
