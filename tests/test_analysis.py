import hashlib
import itertools
import json
import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numeric_oracle import plain_numeric_roots
from weilpoly import analysis
from weilpoly.analysis import (
    _isolate_root_outside,
    count_between,
    exact_modulus_check,
    numeric_roots,
    real_weil_transform,
    sturm_chain,
)
from weilpoly.engine import SearchRange, construct, validate_tuple
from weilpoly.errors import WeilPolyError
from weilpoly.intpoly import IntPoly, check_q_symmetry, squarefree_part
from weilpoly.surd import QuadSurd


def P(*coeffs):
    return IntPoly(coeffs)


def reconstruct_symmetric(h, g, q):
    """Expand t^g * h(t + q/t) back into a polynomial in t."""
    # sum over k of c_k * (t^2 + q)^k * t^(g-k), summed coefficient-wise
    acc = [0] * (2 * g + 1)
    term = P(1)  # (t^2 + q)^k
    for k, c in enumerate(h.coeffs):
        for j, tc in enumerate(term.coeffs):
            acc[g - k + j] += c * tc
        term = term * P(q, 0, 1)
    return IntPoly(acc)


def eval_fraction(f, x):
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def real_root_count(h):
    return count_between(sturm_chain(h), -math.inf, math.inf)


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


def stretched(f, e):
    """f(t^e)."""
    coeffs = [0] * (e * f.degree + 1)
    coeffs[::e] = f.coeffs
    return IntPoly(coeffs)


def report_or_error(roots_of, f, **kwargs):
    try:
        return roots_of(f, **kwargs)
    except WeilPolyError as exc:
        return str(exc)


symmetric_inputs = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.sampled_from([2, 3, 4, 5, 8, 9]),
    st.lists(st.integers(min_value=-10, max_value=10), min_size=8, max_size=8),
)


class TestRealWeilTransform:
    def test_fixture_quartic(self):
        f = check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5)
        assert real_weil_transform(f) == P(-9, 1, 1)

    def test_minimal_shape(self):
        f = check_q_symmetry(P(7, 0, 1), 1, 7)
        assert real_weil_transform(f) == P(0, 1)

    def test_product_of_conjugate_quadratics(self):
        # (t^2 - t + 2)(t^2 + t + 2) = t^4 + 3t^2 + 4
        f = check_q_symmetry(P(4, 0, 3, 0, 1), 2, 2)
        assert real_weil_transform(f) == P(-1, 0, 1)

    @given(symmetric_inputs)
    @settings(max_examples=150)
    def test_roundtrip_identity(self, data):
        g, q, upper = data
        f = symmetric_poly(g, q, upper[:g])
        h = real_weil_transform(f)
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
        with pytest.raises(ValueError, match="h vanishes at an interval endpoint"):
            count_between(chain, QuadSurd(1, -1, 0), QuadSurd(1, 1, 0))

    def test_not_squarefree(self):
        chain = sturm_chain(P(1, 2, 1))
        with pytest.raises(ValueError, match="input must be squarefree"):
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
        assert count_between(chain, -math.inf, math.inf) == len(roots)
        edge = QuadSurd(q, 0, 2)
        if 0 in signs:
            with pytest.raises(ValueError, match="h vanishes at an interval endpoint"):
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
        h = real_weil_transform(f)
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

    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    def test_isolation_needs_a_root_outside_the_band(self, side):
        # roots +/-1 lie inside +/-2*sqrt(5): there is nothing to isolate
        with pytest.raises(WeilPolyError):
            _isolate_root_outside(sturm_chain(P(-1, 0, 1)), 5, 0, side)

    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    def test_isolation_stops_on_a_lying_chain(self, monkeypatch, side):
        # (x - 5)(x - 6) has two roots above 2*sqrt(5), its mirror (x + 5)(x + 6)
        # two below -2*sqrt(5); a count that always claims one root can never
        # be satisfied, and must end in an error
        chain = sturm_chain(P(30, -11 * side, 1))
        monkeypatch.setattr(analysis, "count_between", lambda chain, lo, hi: 1)
        with pytest.raises(WeilPolyError):
            _isolate_root_outside(chain, 5, 2, side)

    def test_below_band_interval_mirrors_above(self):
        # the search below the band is the one above it, run on the mirror
        lo, hi = _isolate_root_outside(sturm_chain(P(30, -11, 1)), 5, 2, 1)
        assert lo < hi and count_between(sturm_chain(P(30, -11, 1)), lo, hi) == 1
        assert _isolate_root_outside(sturm_chain(P(30, 11, 1)), 5, 2, -1) == (-hi, -lo)

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

    def test_reports_the_working_precision(self, monkeypatch):
        # max(128, 2 + 32) + 32 bits, doubled once by a failed first attempt
        rep = numeric_roots(P(-2, 0, 1), 128)
        assert (rep.precision_bits, rep.attempts) == (160, 1)
        durand_kerner, calls = analysis._durand_kerner, []

        def fail_once(coeffs, roots, bits, tol):
            calls.append(bits)
            roots = durand_kerner(coeffs, roots, bits, tol)
            return [(x + (x >> 20), y) for x, y in roots] if len(calls) == 1 else roots

        monkeypatch.setattr(analysis, "_durand_kerner", fail_once)
        rep = numeric_roots(P(-2, 0, 1), 128)
        assert (rep.precision_bits, rep.attempts) == (320, 2)
        assert calls == [240, 480]  # the iteration runs at 3/2 of the working precision

    def test_repeated_roots_certify_once_each(self):
        # the square of t^4+t^3+t^2+5t+25: the iteration runs on its radical
        square = P(625, 250, 75, 60, 61, 12, 3, 2, 1)
        rep = numeric_roots(square, q=5)
        assert rep.attempts == 1 and rep.max_modulus_deviation < 1e-20
        assert rep.roots == numeric_roots(P(25, 5, 1, 1, 1), q=5).roots

    @pytest.mark.parametrize("f, q", [(P(8, 4, 2, 5, 1, 1, 1), 2), (P(25, 5, 1, 1, 1), 5), (P(4, 2, 1), 4)])
    def test_seeds_change_no_report(self, monkeypatch, f, q):
        seeded = numeric_roots(f, 128, q=q)
        # mpmath's start points, which pad the seeds when _seed_roots finds too few
        monkeypatch.setattr(
            analysis, "_seed_roots", lambda f: [(0.4 + 0.9j) ** k for k in range(f.degree)]
        )
        assert numeric_roots(f, 128, q=q) == seeded

    @pytest.mark.parametrize("point", [0.0, 2.0, 5 ** 0.5])
    def test_equal_real_seeds_raise(self, monkeypatch, point):
        # iterates from real start points stay real, so they never reach the
        # nonreal roots: the oracle raises rather than report some of them
        monkeypatch.setattr(analysis, "_seed_roots", lambda f: [point] * f.degree)
        with pytest.raises(WeilPolyError):
            numeric_roots(P(25, 5, 1, 1, 1), 128, q=5)

    def test_merged_roots_raise(self, monkeypatch):
        # two iterates on one point pass their residual checks but leave a
        # root unreported, so the attempt fails
        durand_kerner = analysis._durand_kerner

        def merge(*args):
            roots = durand_kerner(*args)
            return roots[:1] + roots[:-1]

        monkeypatch.setattr(analysis, "_durand_kerner", merge)
        with pytest.raises(WeilPolyError):
            numeric_roots(P(25, 5, 1, 1, 1), 128, q=5)

    @pytest.mark.parametrize("exponent, certified", [(-40, False), (-100, True)])
    def test_residual_threshold(self, monkeypatch, exponent, certified):
        # roots moved by 2^exponent relative to their size pass the 2^-64
        # backward-error bound of 128 bits exactly when the move is below it
        durand_kerner = analysis._durand_kerner
        monkeypatch.setattr(
            analysis, "_durand_kerner",
            lambda *args: [(x + (x >> -exponent), y + (y >> -exponent)) for x, y in durand_kerner(*args)],
        )
        if certified:
            assert numeric_roots(P(25, 5, 1, 1, 1), 128, q=5).max_modulus_deviation < 1e-29
        else:
            with pytest.raises(WeilPolyError):
                numeric_roots(P(25, 5, 1, 1, 1), 128, q=5)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.integers(0, 5),
        st.integers(-2, 2), st.integers(-2, 2), st.integers(2, 10), st.integers(0, 16),
    )
    @example([1, 4, 7, -7, -3], 4, 1, 0, 8, 11)
    @example([3, 5, -4, 6, -7], 0, -2, -2, 8, 8)
    @example([-5, 5, 0, 4, -9, -6], 3, 0, 0, 4, 10)
    @settings(max_examples=300)
    def test_residual_certificate_is_sound(self, coeffs, k, dx, dy, bits, half):
        # near a root of the monic t^n + coeffs, at a coarse fixed point, the
        # Horner value alone can come out near 0 while the exact residual is
        # large; the rounding-error bound keeps such a z from passing
        seeds = analysis._seed_roots(P(*coeffs, 1))
        assume(seeds)
        w = seeds[k % len(seeds)]
        x, y = round(w.real * 2 ** bits) + dx, round(w.imag * 2 ** bits) + dy
        if analysis._residual_certified([c << bits for c in coeffs], (x, y), bits, half):
            with mpmath.workprec(200):
                z = mpmath.mpc(x, y) / 2 ** bits
                value = mpmath.polyval([1] + coeffs[::-1], z)
                size = mpmath.polyval([1] + [abs(c) for c in coeffs[::-1]], abs(z))
                assert abs(value) * 2 ** half <= size

    @given(symmetric_inputs)
    @settings(max_examples=40)
    def test_roots_match_mpmath(self, data):
        # mpmath's Durand-Kerner iteration as an independent oracle: the
        # fixed-point roots of the certified attempt match its roots within 2^-100
        g, q, upper = data
        f = symmetric_poly(g, q, upper[:g]).poly
        assume(squarefree_part(f).degree == f.degree)
        durand_kerner, runs = analysis._durand_kerner, []

        def spy(coeffs, roots, bits, tol):
            roots = durand_kerner(coeffs, roots, bits, tol)
            runs.append((list(roots), bits))
            return roots

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_durand_kerner", spy)
            numeric_roots(f, 128)
        ours, bits = runs[-1]  # the certified attempt
        with mpmath.workprec(bits):
            theirs = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=200, extraprec=bits)
            unmatched = list(theirs)
            for x, y in ours:
                z = mpmath.mpc(mpmath.mpf(x) / 2 ** bits, mpmath.mpf(y) / 2 ** bits)
                w = min(unmatched, key=lambda w: abs(z - w))
                assert abs(z - w) <= abs(w) * mpmath.mpf(2) ** -100
                unmatched.remove(w)
        assert unmatched == []

    def test_family_tuples_match_the_plain_iteration(self):
        # six (rho, b) families; the b = 2 ones are f(t) = F(t^rho), so their
        # sweeps run through R(t^e) with e = rho.  Every report (roots,
        # deviations, precision, attempts) is the plain iteration's
        grids = [
            SearchRange((5, 7), (1,), q_max=128), SearchRange((11,), (1,), q_max=64),
            SearchRange((13,), (1,), q_max=32), SearchRange((5,), (2,), (2, 3), q_max=64),
            SearchRange((7,), (2,), q_max=32),
        ]
        tuples = [t for grid in grids for t in grid.candidate_tuples() if all(c.passed for c in validate_tuple(t))]
        assert len(tuples) == 344
        for t in tuples:
            f = construct(t).poly
            assert numeric_roots(f, q=t.q) == plain_numeric_roots(f, q=t.q), t

    @given(st.sampled_from([1, 2, 3, 5]), symmetric_inputs)
    @example(5, (2, 5, [1, 1, 0, 0, 0, 0, 0, 0]))
    @settings(max_examples=250)
    def test_stretched_inputs_match_the_plain_iteration(self, e, data):
        # f(t) = F(t^e) for a q^e-symmetric F is q-symmetric; on it and on its
        # radical the report is the plain iteration's, or both raise alike
        g, q, upper = data
        g = min(g, max(2, 8 // e))
        f = stretched(symmetric_poly(g, q ** e, upper[:g]).poly, e)
        assert report_or_error(numeric_roots, f, q=q) == report_or_error(plain_numeric_roots, f, q=q)

    def test_close_root_pair_matches_the_plain_iteration(self):
        # t^2 + (2^551 + 1)t + 2^1100 has two real roots 2^-274 apart relative
        # to their size 2^550: the sweeps converge only linearly until they
        # separate them (567 sweeps at 3,447 bits), past a cap of 200 sweeps
        # but within one sweep per bit of the working precision
        f = P(2 ** 1100, 2 ** 551 + 1, 1)
        rep = numeric_roots(f)
        assert rep.attempts == 1 and len(rep.roots) == 2
        assert rep == plain_numeric_roots(f)

    def test_far_seeds_reach_the_plain_report(self, monkeypatch):
        # from mpmath's start points alone, far from the roots, the ramp's
        # sweeps do not converge, and the report still is the plain iteration's
        inputs = [(stretched(P(9765625, 3125, 1, 1, 1), 5), 5), (stretched(P(64, -8, 1), 3), 4),
                  (P(25, 5, 1, 1, 1), 5), (P(3 ** 16, *[0] * 31, 1), 3)]
        expected = [plain_numeric_roots(f, q=q) for f, q in inputs]
        monkeypatch.setattr(analysis, "_seed_roots", lambda f: [])
        assert [numeric_roots(f, q=q) for f, q in inputs] == expected

    def test_seeds_lift_the_roots_of_R(self, monkeypatch):
        # f(t) = R(t^5) for a quartic R: each start point is a fifth root of an
        # Aberth seed of R times a fifth root of unity, so the 20 start points
        # lie near the 20 distinct roots, one each
        f = stretched(P(9765625, 3125, 1, 1, 1), 5)
        durand_kerner, calls = analysis._durand_kerner, []

        def spy(coeffs, roots, bits, tol):
            calls.append(list(roots))
            return durand_kerner(coeffs, roots, bits, tol)

        monkeypatch.setattr(analysis, "_durand_kerner", spy)
        rep = numeric_roots(f, q=5)
        [starts] = calls
        unmatched = list(rep.roots)
        for x, y in starts:
            z = complex(x, y) / 2 ** 128
            w = min(unmatched, key=lambda w: abs(z - w))
            assert abs(z - w) < 1e-9 * abs(w)
            unmatched.remove(w)
        assert unmatched == []

    def test_one_sweep_per_ramp_precision_then_the_stopping_rule(self, monkeypatch):
        # at 648 bits the iteration takes one sweep at each of 128, 256 and 512
        # bits, then sweeps at 648 bits until one moves every root by less than
        # the tolerance, and only then
        sweep, durand_kerner, calls = analysis._sweep, analysis._durand_kerner, []

        def spy_sweep(a, e, roots, bits):
            largest = sweep(a, e, roots, bits)
            calls[-1][2].append((bits, largest))
            return largest

        def spy(coeffs, roots, bits, tol):
            calls.append((bits, tol, []))
            return durand_kerner(coeffs, roots, bits, tol)

        monkeypatch.setattr(analysis, "_sweep", spy_sweep)
        monkeypatch.setattr(analysis, "_durand_kerner", spy)
        rep = numeric_roots(stretched(P(9765625, 3125, 1, 1, 1), 5), 400, q=5)
        [(bits, tol, sweeps)] = calls
        assert (rep.precision_bits, bits, tol) == (432, 648, 1 << 432)
        assert [k for k, _ in sweeps[:3]] == [128, 256, 512]
        full = sweeps[3:]
        assert full and all(k == bits for k, _ in full)
        assert [move < tol for _, move in full] == [False] * (len(full) - 1) + [True]

    def test_high_degree_binomial(self):
        # t^64 + 3^32: every root has modulus sqrt(3)
        rep = numeric_roots(P(3 ** 32, *[0] * 63, 1), q=3)
        assert len(rep.roots) == 64
        assert rep.max_modulus_deviation < 1e-20

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
