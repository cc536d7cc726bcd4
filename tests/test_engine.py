import gc
import hashlib
import itertools
import json
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
import sympy
from absolute_simplicity_oracle import absolutely_simple_g2
from ddf_oracle import cyclotomic
from hypothesis import given, settings
from hypothesis import strategies as st
from perfbench_inputs import verify_pool

from weilpoly import engine
from weilpoly.analysis import exact_modulus_check
from weilpoly.engine import (
    ClassifyOptions,
    ParamTuple,
    SearchRange,
    certify_ordinary,
    certify_simple,
    classify,
    construct,
    modular_irreducibility_certificate,
    search,
    validate_tuple,
)
from weilpoly.errors import InvalidTuple, NotPrimePower
from weilpoly.intpoly import (
    IntPoly,
    check_q_symmetry,
    minimal_poly_of_power,
)
from weilpoly.modpoly import is_irreducible_mod, reduce_mod
from weilpoly.numtheory import is_prime, primes_first

T1 = ParamTuple(rho=5, b=1, r=2, p=5, n=1, m=0)
T2 = ParamTuple(rho=5, b=1, r=3, p=2, n=2, m=0)
T3 = ParamTuple(rho=5, b=2, r=2, p=5, n=1, m=0)
TENTH = IntPoly((32, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))  # t^10 + t^5 + 32, a 2-polynomial


def P(*coeffs):
    return IntPoly(coeffs)


class TestValidateTuple:
    def test_all_pass_fixtures(self):
        assert all(c.passed for c in validate_tuple(T1))
        assert all(c.passed for c in validate_tuple(T2))

    def test_q_congruence_failure(self):
        t = ParamTuple(rho=5, b=1, r=2, p=2, n=2, m=0)
        failed = [c.name for c in validate_tuple(t) if not c.passed]
        assert "q = 1 mod r" in failed

    def test_parity_exclusion(self):
        # q = 4, r = 3: -1/3 = 1 mod 2, so odd m is excluded
        t = ParamTuple(rho=5, b=1, r=3, p=2, n=2, m=1)
        failed = [c.name for c in validate_tuple(t) if not c.passed]
        assert failed == ["m != -1/r mod p"]

    def test_m_out_of_range(self):
        t = ParamTuple(rho=5, b=1, r=2, p=5, n=1, m=3)  # m_max(5,1,2) = 2
        failed = [c.name for c in validate_tuple(t) if not c.passed]
        assert "0 <= m <= m_max" in failed

    def test_non_primitive_r(self):
        t = ParamTuple(rho=5, b=1, r=7, p=2, n=3, m=0)  # ord_25(7) = 4
        failed = [c.name for c in validate_tuple(t) if not c.passed]
        assert "r primitive root mod rho^2" in failed


class TestConstruct:
    def test_quartic_fixtures(self):
        assert construct(T1).poly == P(25, 5, 1, 1, 1)
        assert construct(T2).poly == P(16, 4, 1, 1, 1)

    def test_degree20_fixture(self):
        f = construct(T3).poly
        expected = [0] * 21
        expected[20] = 1
        expected[15] = 1
        expected[10] = 1
        expected[5] = 5 ** 5
        expected[0] = 5 ** 10
        assert f == IntPoly(expected)

    def test_invalid_tuple_raises(self):
        with pytest.raises(InvalidTuple) as exc:
            construct(ParamTuple(rho=5, b=1, r=2, p=2, n=2, m=0))
        assert "q = 1 mod r" in [c.name for c in exc.value.failures]

    def test_middle_coefficient_tracks_m(self):
        # m = 2 is excluded here: -1/2 = 2 mod 5
        t = ParamTuple(rho=5, b=1, r=2, p=5, n=1, m=1)
        assert construct(t).middle == 3

    def test_size_caps(self):
        big = ParamTuple(rho=1009, b=1, r=11, p=23, n=1, m=0)
        with pytest.raises(InvalidTuple) as exc:
            construct(big)
        assert "degree cap" in [c.name for c in exc.value.failures]


class TestCertificates:
    def test_ordinary(self):
        assert certify_ordinary(check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5), 5)
        assert not certify_ordinary(check_q_symmetry(P(64, 16, 2, 2, 1), 2, 8), 2)

    def test_simple_via_cyclotomic_reduction(self):
        assert certify_simple(check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5), 2, 5, 1)
        assert certify_simple(check_q_symmetry(P(16, 4, 1, 1, 1), 2, 4), 3, 5, 1)
        assert not certify_simple(check_q_symmetry(P(64, 16, 2, 2, 1), 2, 8), 2, 5, 1)

    def test_simple_by_order_matches_ben_or(self):
        # Phi_n itself (q-symmetric with q = 1) passes the congruence for every r,
        # so certify_simple answers by the order of r alone; Ben-Or is the oracle
        answers = set()
        for rho, b in ((5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)):
            phi = cyclotomic(rho ** b)
            f = check_q_symmetry(phi, phi.degree // 2, 1)
            for r in primes_first(17):  # the primes below 60, rho among them
                expected = is_irreducible_mod(phi.coeffs, r)
                assert certify_simple(f, r, rho, b) == expected, (rho, b, r)
                answers.add(expected)
        assert answers == {True, False}

    def test_absolutely_simple_g2(self):
        assert absolutely_simple_g2(check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5))
        assert absolutely_simple_g2(check_q_symmetry(P(16, 4, 1, 1, 1), 2, 4))
        # a_1 = 0 always fails (0 is in the excluded set)
        assert not absolutely_simple_g2(check_q_symmetry(P(25, 0, 2, 0, 1), 2, 5))

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="g = 3, need 2"):
            absolutely_simple_g2(check_q_symmetry(P(8, 4, 2, 5, 1, 1, 1), 3, 2))

    def test_power_test_witnesses(self):
        scan = engine._absolute_simplicity
        f20 = construct(T3)
        assert scan(f20, 2, T3) == ("certified_no", 5, None)
        assert scan(f20, 2, None) == ("certified_no", 5, None)  # d = 2..4 drop nothing
        assert minimal_poly_of_power(f20.poly, 5).degree == 4

        # t^2 + 5 (theta = i*sqrt(5), theta^2 = -5) is irreducible mod 11 but
        # not ordinary, outside the scan's precondition; the admissible orders
        # rest on f separable mod r alone, so d = 2 stays admissible at r = 11
        assert modular_irreducibility_certificate(P(5, 0, 1)) == 11
        assert engine._admissible(2, 1, 11)
        # theta^5 drops the degree, and phi(5) = 4 does not divide 2g = 10, so
        # a scan of the d with phi(d) | 2g would miss it
        rep = classify((TENTH, 2))
        assert rep.is_q_polynomial and rep.ordinary and rep.simple
        assert (rep.absolutely_simple, rep.witness_d, rep.power_test_bound) == ("certified_no", 5, None)
        # no power up to 2g^2 = 18 drops the degree, so the scan has passed
        # rho^b = 7, which the tuple's least witness would divide, and
        # certifies "yes"; the same polynomial without its tuple has no verdict
        t71 = ParamTuple(rho=7, b=1, r=3, p=13, n=1, m=0)
        f71 = construct(t71)
        assert scan(f71, 3, t71) == ("certified_yes", None, None)
        assert scan(f71, 3, None) == ("inconclusive", None, 18)

    def test_order_bound(self):
        # a tuple's least witness divides rho^b, so a scan to 2g^2 that finds
        # no drop has passed it: rho^b <= 2g^2, that is 2*rho^(2 - b) <=
        # (rho - 1)^2, for every (rho, b) under the degree cap; (5, 1) comes
        # closest, with 5 <= 8
        pairs = [(rho, b) for rho in range(5, engine.MAX_TWO_G + 2) if is_prime(rho)
                 for b in range(1, 5) if rho ** (b - 1) * (rho - 1) <= engine.MAX_TWO_G]
        assert len(pairs) == 58 and (257, 1) in pairs and (5, 3) in pairs
        for rho, b in pairs:
            g = ParamTuple(rho=rho, b=b, r=2, p=5, n=1, m=0).g
            assert rho ** b <= 2 * g * g, (rho, b)

    def test_order_bound_certificates_agree_with_the_power_at_the_bound(self):
        # differential check of the rule that a tuple's scan without a drop
        # certifies "yes": on every tuple it certifies, theta^D for D = rho^b,
        # computed outside the scan, has full degree 2g.  A g that is a power
        # of two is certified by the theorem alone.
        # rho = 13 stops at q <= 9: its scan costs about 0.5 s a tuple
        grids = [
            SearchRange(rhos=(5, 7), bs=(1, 2), q_max=64),
            SearchRange(rhos=(11,), bs=(1,), q_max=64),
            SearchRange(rhos=(13,), bs=(1,), q_max=9),
        ]
        certified = Counter()
        for rep in itertools.chain.from_iterable(map(search, grids)):
            if rep.absolutely_simple != "certified_yes":
                continue
            if rep.g & (rep.g - 1) == 0:
                continue
            bound = rep.tuple.rho ** rep.tuple.b
            assert minimal_poly_of_power(rep.poly, bound).degree == 2 * rep.g, rep.tuple
            certified[rep.tuple.rho, rep.tuple.b, bound] += 1
        assert certified == {(7, 1, 7): 28, (11, 1, 11): 56, (13, 1, 13): 6}

    def test_admissible_orders(self):
        # the d <= 2g^2 the scan skips at the certificate prime r: multiples of
        # r (of 4 at r = 2), d with phi(d) not dividing 2^g * g!, and d with
        # phi(d) / gcd(phi(d), 2g) > max(1, 2g - 2)
        def skipped(g, r):
            return [d for d in range(2, 2 * g * g + 1) if not engine._admissible(d, g, r)]

        # a prime past 2g^2 divides no d: the Galois conditions alone
        assert skipped(1, 1009) == skipped(1, 2) == []
        assert skipped(2, 1009) == [7]
        assert skipped(3, 1009) == [11, 17]
        assert skipped(5, 1009) == [19, 23, 27, 29, 35, 37, 38, 39, 43, 45, 46, 47, 49]
        assert len(skipped(8, 1009)) == 36
        # at r = 2 the d = 2 mod 4 stay: Q(zeta_d) = Q(zeta_(d/2)) is unramified at 2
        assert skipped(2, 2) == [4, 7, 8]
        assert skipped(2, 3) == [3, 6, 7]
        assert skipped(3, 2) == [4, 8, 11, 12, 16, 17]
        assert skipped(3, 3) == [3, 6, 9, 11, 12, 15, 17, 18]
        assert skipped(5, 2) == [4, 8, 12, 16, 19, 20, 23, 24, 27, 28, 29, 32, 35, 36, 37, 38, 39, 40,
                                 43, 44, 45, 46, 47, 48, 49]
        assert len(skipped(8, 2)) == 66 and len(skipped(8, 3)) == 74

    def test_pruned_scan_matches_full_scan(self):
        # the scan over admissible d at the certificate prime r against a scan
        # over every d in 2..2g^2: the same first dropping d, or none at all
        def first_drop(f, tup):
            first = [tup.rho] if tup is not None and tup.b > 1 else []
            s: list[int] = []
            ds = first + list(range(2, 2 * f.g * f.g + 1))
            return next((d for d in ds if minimal_poly_of_power(f.poly, d, s).degree < 2 * f.g), None)

        def valid(rho, q_max):
            tuples = SearchRange(rhos=(rho,), bs=(1,), q_max=q_max).candidate_tuples()
            return [t for t in tuples if all(c.passed for c in validate_tuple(t))]

        inputs = [(construct(t), t.r, t) for t in valid(7, 64) + valid(11, 128)[:3]]
        inputs += [(check_q_symmetry(TENTH, 5, 2), 29, None), (construct(T3), 2, None)]
        # the (7, 1) and (5, 2) rows of the benchmark's raw pool, at their simple_r
        # (the (5, 1) rows, g = 2, are certified with no scan)
        family = {(tuple(coeffs), q) for _, coeffs, q, fam in verify_pool() if fam in ((7, 1), (5, 2))}
        for coeffs, q in sorted(family):
            rep = classify((IntPoly(coeffs), q))
            if rep.absolutely_simple != "not_evaluated":
                inputs.append((check_q_symmetry(rep.poly, rep.g, q), rep.simple_r, None))
        verdicts = Counter()
        for f, r, tup in inputs:
            verdict, witness, _ = engine._absolute_simplicity(f, r, tup)
            assert witness == first_drop(f, tup), (f.poly.to_string(), f.q, r)
            assert (verdict == "certified_no") == (witness is not None)
            verdicts[verdict, witness, r] += 1
        # the 31 tuples without a drop pass rho = 7 or 11 <= 2g^2; the raw
        # (7, 1) rows, at r = 3, have no tuple and no verdict
        assert verdicts == {("certified_yes", None, 3): 28, ("certified_yes", None, 2): 3,
                            ("certified_no", 5, 29): 1, ("certified_no", 5, 2): 479,
                            ("inconclusive", None, 3): 294}

    def test_g2_rule_agrees_with_power_scan(self):
        # differential check of the coefficient rule against the scan over
        # d = 2..8, on every irreducible Weil quartic of a small grid
        # (irreducibility decided independently by sympy); and of the theorem
        # at g = 2: no quartic with a certificate prime has a witness
        x = sympy.Symbol("x")
        found = Counter()
        for q, p in ((4, 2), (5, 5), (7, 7), (9, 3)):
            for a1 in range(-6, 7):
                for a2 in range(-2 * q - 8, 2 * q + 9):
                    if a2 % p == 0:
                        continue
                    f = check_q_symmetry(P(q * q, q * a1, a2, a1, 1), 2, q)
                    if not exact_modulus_check(f).passed:
                        continue
                    if not sympy.Poly(f.poly.coeffs[::-1], x).is_irreducible:
                        continue
                    s: list[int] = []
                    witness = next(
                        (d for d in range(2, 9) if minimal_poly_of_power(f.poly, d, s).degree < 4),
                        None,
                    )
                    assert (witness is None) == absolutely_simple_g2(f), (q, a1, a2, witness)
                    certified = modular_irreducibility_certificate(f.poly) is not None
                    assert witness is None or not certified, (q, a1, a2, witness)
                    found[witness, certified] += 1
        assert found == {(None, True): 270, (2, False): 57, (3, False): 24, (4, False): 12, (6, False): 6}

    def test_modular_certificate_search(self):
        assert modular_irreducibility_certificate(P(25, 5, 1, 1, 1)) == 2
        # t^2 - 6t + 8 = (t - 2)(t - 4), q = 8: N = 6^2 - 4*8 = 2^2 is a square mod every odd r
        assert modular_irreducibility_certificate(P(8, -6, 1)) is None
        for f in (P(2, 1, 0, 1), P(2, 0, 1, 0, 1), P(25, 4, 1, 1, 1), P(1, 0, 2)):
            with pytest.raises(ValueError):  # odd degree, 2 not a square, a_1 q != 4, not monic
                modular_irreducibility_certificate(f)

    @staticmethod
    def _certificate_at(f, r):
        """modular_irreducibility_certificate(f) with r as the only prime."""
        with mock.patch.object(engine, "_certificate_primes", lambda tries: (r,)):
            return modular_irreducibility_certificate(f) == r

    @given(st.data())
    @settings(max_examples=200)
    def test_certificate_through_h_matches_ben_or_on_f(self, data):
        g = data.draw(st.integers(1, 8), "g")
        q = data.draw(st.sampled_from([2, 3]) | st.integers(2, 60).map(lambda k: 2 * k)
                      | st.integers(2, 60).map(lambda k: 2 * k + 1), "q")
        upper = data.draw(st.lists(st.integers(-40, 40), min_size=g + 1, max_size=g + 1), "a_1..a_g")
        coeffs = [0] * g + [upper[-1]] + [0] * g
        coeffs[0], coeffs[2 * g] = q ** g, 1
        for j, a in enumerate(upper[:-1], start=1):
            coeffs[2 * g - j], coeffs[j] = a, q ** (g - j) * a
        f = P(*coeffs)
        for r in primes_first(engine.DEFAULT_RAW_CERT_PRIMES):
            assert self._certificate_at(f, r) == is_irreducible_mod(f.coeffs, r), (coeffs, q, r)

    def test_certificate_edge_cases(self):
        # r | q: f = t^g * h(t) mod r.  t^2 + t + 4 = t(t + 1) mod 2; N = -15 is
        # 0 mod 3 and 5, and no square mod 7
        assert not self._certificate_at(P(4, 1, 1), 2)
        assert modular_irreducibility_certificate(P(4, 1, 1)) == 7
        # g = 1 with h = x mod 2: t^2 + 3 = (t + 1)^2 mod 2, where h = x has h(0) = 0;
        # t^2 + t + 3 is irreducible mod 2, and h = x + 1 has h(0) * h'(0) = 1
        assert not self._certificate_at(P(3, 0, 1), 2) and self._certificate_at(P(3, 1, 1), 2)
        assert modular_irreducibility_certificate(P(3, 0, 1)) == 5
        # N = 0 mod r: h = x^2 + 3x + 1 is irreducible mod 3 and N = 21^2 - 20 * 3^2
        # = 261 = 9 * 29, so x^2 - 4q has a root mod h: f = (t^2 + 1)^2 mod 3
        f = P(25, 15, 11, 3, 1)
        assert is_irreducible_mod((1, 3, 1), 3) and not is_irreducible_mod(f.coeffs, 3)
        assert not self._certificate_at(f, 3)
        # the ac2 quartic, q = 8: N = 14^2 and every odd prime sees a square, 2 divides q
        assert modular_irreducibility_certificate(P(64, 16, 2, 2, 1)) is None


class TestClassify:
    def test_tuple_report_fields(self):
        rep = classify(T2)
        assert rep.is_q_polynomial and rep.method == "exact+ll"
        assert rep.ordinary and rep.simple and rep.simple_r == 3
        assert rep.absolutely_simple == "certified_yes"

    def test_b2_certified_no(self):
        rep = classify(T3)
        assert rep.absolutely_simple == "certified_no"
        assert rep.witness_d == 5

    def test_b3_witness_is_rho(self):
        # f lies in Z[t^25], so theta^5 drops the degree: rho = 5 is the least
        # witness, the least order past 1 that divides rho^b = 125, and no
        # admissible d < 5 drops the degree
        for p in (5, 7, 11):
            t = ParamTuple(rho=5, b=3, r=2, p=p, n=1, m=0)
            rep = classify(t)
            assert (rep.absolutely_simple, rep.witness_d, rep.power_test_bound) == ("certified_no", 5, None)
            s: list[int] = []
            lower = [d for d in range(2, 5) if engine._admissible(d, rep.g, t.r)]
            assert lower == [2, 3]
            assert [minimal_poly_of_power(rep.poly, d, s).degree for d in lower] == [100, 100]

    def test_fermat_prime_rho_is_certified_by_the_theorem(self):
        # (17, 1): g = 8 is a power of two, so the theorem certifies "yes" with
        # no power computed; theta^17, the one order that divides rho^b, has
        # full degree 16, checked here outside the certificate
        for p in (7, 13, 103):
            rep = classify(ParamTuple(rho=17, b=1, r=3, p=p, n=1, m=0))
            assert (rep.absolutely_simple, rep.witness_d, rep.power_test_bound) == ("certified_yes", None, None)
            assert minimal_poly_of_power(rep.poly, 17).degree == 16

    def test_b2_witness_without_degree_drop_is_not_certified(self, monkeypatch):
        # if theta^5 did not lie in a proper subfield, the b = 2 witness
        # proves nothing: the general power scan decides instead, and with no
        # power dropping the degree it passes rho^b = 25 <= 2g^2 = 200, which
        # the least witness would divide, and certifies "yes"
        monkeypatch.setattr(engine, "minimal_poly_of_power", lambda f, d, s: f)
        rep = classify(T3)
        assert (rep.absolutely_simple, rep.witness_d, rep.power_test_bound) == ("certified_yes", None, None)

    def test_order_bound_past_the_scan_certifies_nothing(self):
        # a tuple's order bound rho^b lies within the scan, so a scan to 2g^2
        # with no drop certifies "yes"; a bare (f, q) of odd g has no bound,
        # and the same scan certifies nothing.  (5, 1) at r = 2 and r = 3 has
        # g = 2, a power of two, and is certified with no power computed.
        t71 = ParamTuple(rho=7, b=1, r=3, p=13, n=1, m=0)
        rep = classify(t71)
        assert (rep.absolutely_simple, rep.witness_d, rep.power_test_bound) == ("certified_yes", None, None)
        raw = classify((rep.poly, rep.q))
        assert raw.simple and raw.g == 3
        assert (raw.absolutely_simple, raw.witness_d, raw.power_test_bound) == ("inconclusive", None, 18)
        for tup in (T1, T2):
            rep = classify(tup)
            assert (rep.absolutely_simple, rep.witness_d, rep.power_test_bound) == ("certified_yes", None, None)
            raw = classify((rep.poly, rep.q))
            assert (raw.absolutely_simple, raw.witness_d, raw.power_test_bound) == ("certified_yes", None, None)

    def test_raw_absolute_simplicity_golden(self):
        # every raw-input verdict, witness and scan bound, pinned: g = 3 grids
        # over q in {3, 4}, then the (rho, b, r) = (5, 2, 2) family as bare
        # (f, q); 14 + 5 certified_no, 238 inconclusive
        inputs = []
        for q in (3, 4):
            for upper in itertools.product(range(-2, 3), range(-3, 4), range(-5, 6)):
                coeffs = [q ** 3, 0, 0, 0, 0, 0, 1]
                for j, a in enumerate(upper, start=1):
                    coeffs[6 - j], coeffs[j] = a, q ** (3 - j) * a
                inputs.append((P(*coeffs), q))
        for p, n in ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
            inputs.append((construct(ParamTuple(rho=5, b=2, r=2, p=p, n=n, m=0)).poly, p ** n))
        lines, witnesses = [], Counter()
        for f, q in inputs:
            rep = classify((f, q))
            record = [q, f.to_string(), rep.absolutely_simple, rep.witness_d, rep.power_test_bound]
            lines.append(json.dumps(record) + "\n")
            if rep.witness_d is not None:
                witnesses[rep.witness_d, rep.simple_r] += 1
        assert len(lines) == 775
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "4fd850d63667388b39b12f6aa0276085165144a088f7e80163c9be2a8b491801"
        # each witness is the order of a ratio of two roots, so no multiple of
        # the certificate prime r (of 4 at r = 2)
        assert witnesses == {(3, 2): 4, (3, 5): 4, (3, 11): 2, (3, 17): 2, (3, 23): 2, (5, 2): 5}
        assert all(d % (4 if r == 2 else r) for d, r in witnesses)

    def test_raw_counterexample(self):
        rep = classify((P(8, 4, 2, 5, 1, 1, 1), 2))
        assert not rep.is_q_polynomial
        assert rep.modulus_witness["kind"] == "real_root_outside_band"
        assert rep.ll_passed is False  # serialized as "inconclusive"
        assert rep.to_json_dict()["ll_passed"] == "inconclusive"

    def test_raw_non_symmetric(self):
        rep = classify((P(1, 2, 1), 2))
        assert not rep.is_q_polynomial and rep.method == "shape"

    def test_purity(self):
        a = json.dumps(classify(T1).to_json_dict(include_timings=False))
        b = json.dumps(classify(T1).to_json_dict(include_timings=False))
        assert a == b

    def test_numeric_option(self):
        rep = classify(T1, ClassifyOptions(with_numeric=True))
        assert rep.max_modulus_deviation is not None
        assert rep.max_modulus_deviation < 1e-12

    def test_invalid_tuple_raises(self):
        # the failed checks travel with the exception, details included
        with pytest.raises(InvalidTuple) as exc:
            classify(ParamTuple(rho=5, b=1, r=2, p=2, n=2, m=0))
        assert ("q = 1 mod r", "q=4, r=2") in [(c.name, c.detail) for c in exc.value.failures]

    def test_over_the_field_size_cap_raises_at_once(self):
        # q = 11^5000 is never formed: the field size cap refuses the tuple
        with pytest.raises(InvalidTuple, match="field size cap"):
            classify(ParamTuple(rho=5, b=1, r=2, p=11, n=5000, m=0))

    def test_non_prime_power_q_raises(self):
        with pytest.raises(NotPrimePower):
            classify((P(36, 6, 1, 1, 1), 6))

    def test_memory_stays_flat_as_a_sweep_grows(self):
        # classify keeps nothing between inputs: after a warm-up, 400 more
        # tuples (g = 10, each with its own q) leave under 256 KB behind
        tuples = [t for t in SearchRange(rhos=(5,), bs=(2,), q_max=4000).candidate_tuples() if t.m == 0]
        assert len({t.q for t in tuples[:450]}) == 450
        tracemalloc.start()
        try:
            for t in tuples[:50]:
                classify(t)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for t in tuples[50:450]:
                classify(t)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 256 * 1024


class TestTheoremInvariants:
    def test_cyclotomic_congruence_small_sweep(self):
        rng = SearchRange(rhos=(5, 7), bs=(1, 2), q_max=16)
        count = 0
        for t in rng.candidate_tuples():
            if not all(c.passed for c in validate_tuple(t)):
                continue
            f = construct(t)
            assert reduce_mod(f.poly.coeffs, t.r) == reduce_mod(cyclotomic(t.rho ** t.b).coeffs, t.r)
            assert is_irreducible_mod(f.poly.coeffs, t.r)
            count += 1
        assert count > 0

    def test_b2_minimal_poly_degree(self):
        rng = SearchRange(rhos=(5,), bs=(2,), q_max=16)
        for t in rng.candidate_tuples():
            if not all(c.passed for c in validate_tuple(t)):
                continue
            f = construct(t)
            assert minimal_poly_of_power(f.poly, t.rho).degree == t.rho - 1

    def test_rho7_reductions_all_phi7(self):
        rng = SearchRange(rhos=(7,), bs=(1,), rs=(3,), q_max=25)
        target = reduce_mod(cyclotomic(7).coeffs, 3)
        qs = set()
        for t in rng.candidate_tuples():
            if all(c.passed for c in validate_tuple(t)):
                assert reduce_mod(construct(t).poly.coeffs, 3) == target
                qs.add(t.q)
        assert {4, 13, 25} <= qs


class TestSearch:
    def test_lexicographic_order(self):
        rng = SearchRange(rhos=(5,), bs=(1,), q_max=25)
        reports = list(search(rng))
        keys = [
            (r.tuple.rho, r.tuple.b, r.tuple.r, r.tuple.q, r.tuple.m) for r in reports
        ]
        assert keys == sorted(keys)

    def test_empty_range(self):
        rng = SearchRange(rhos=(5,), bs=(1,), q_max=3)
        assert list(search(rng)) == []

    def test_validation_streams(self, monkeypatch):
        # the first report waits for its own tuple's validation only, not the
        # whole grid's (1,709 candidates here), and validates it once
        validated = []
        validate = engine.validate_tuple
        monkeypatch.setattr(engine, "validate_tuple", lambda t: validated.append(t) or validate(t))
        next(search(SearchRange(rhos=(5, 7), bs=(1, 2), q_max=1024)))
        assert len(validated) == 1

    def test_invalid_candidates_are_not_classified(self, monkeypatch):
        # r = 7 is not a primitive root mod 25: each candidate is validated
        # once and none is classified, so classify calls equal the reports made
        rng = SearchRange(rhos=(5,), bs=(1,), rs=(7,), q_max=30)
        validated, classified = [], []
        validate, classify = engine.validate_tuple, engine.classify
        monkeypatch.setattr(engine, "validate_tuple", lambda t: validated.append(t) or validate(t))
        monkeypatch.setattr(engine, "classify", lambda *a: classified.append(a) or classify(*a))
        assert list(search(rng)) == []
        assert validated == list(rng.candidate_tuples()) != [] and classified == []

    def test_workers_keep_a_bounded_window(self, monkeypatch):
        # several workers draw one window of tuples before the first report,
        # not the whole grid (563 candidates here)
        drawn = []
        candidates = SearchRange.candidate_tuples
        monkeypatch.setattr(
            SearchRange, "candidate_tuples", lambda rng: (drawn.append(t) or t for t in candidates(rng))
        )
        reports = search(SearchRange(rhos=(5, 7), bs=(1, 2), q_max=256), workers=2)
        next(reports)
        reports.close()
        assert 0 < len(drawn) <= engine.SEARCH_WINDOW_PER_WORKER * 2

    def test_workers_preserve_order_and_content(self):
        rng = SearchRange(rhos=(5,), bs=(1, 2), q_max=9)
        serial = [json.dumps(r.to_json_dict(include_timings=False)) for r in search(rng, workers=1)]
        parallel = [json.dumps(r.to_json_dict(include_timings=False)) for r in search(rng, workers=2)]
        assert serial == parallel

    def test_m_policy_all_supersets_corners(self):
        corners = SearchRange(rhos=(5,), bs=(1,), q_max=9, m_policy="corners")
        everything = SearchRange(rhos=(5,), bs=(1,), q_max=9, m_policy="all")
        corner_tuples = {t for t in corners.candidate_tuples() if all(c.passed for c in validate_tuple(t))}
        all_tuples = [t for t in everything.candidate_tuples() if all(c.passed for c in validate_tuple(t))]
        assert corner_tuples <= set(all_tuples)
        assert len(all_tuples) > len(corner_tuples)
        # every enumerated m respects the bound
        from weilpoly.surd import m_max

        for t in all_tuples:
            assert 0 <= t.m <= m_max(t.q, t.dpow, t.r)


class TestReportSerialization:
    def test_stable_field_contract(self):
        from weilpoly.engine import CSV_FIELDS, REPORT_FIELDS, TUPLE_KEYS, csv_row

        rep = classify(T1)
        d = rep.to_json_dict(include_timings=True)
        assert list(d)[: len(REPORT_FIELDS) + 1] == ["tuple", *REPORT_FIELDS]
        assert list(d["tuple"]) == list(TUPLE_KEYS)
        assert "timings_ms" in d
        assert len(csv_row(d)) == len(CSV_FIELDS)
