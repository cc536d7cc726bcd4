import hashlib
import itertools
import json
from collections import Counter

import pytest
import sympy

from weilpoly import engine
from weilpoly.analysis import exact_modulus_check
from weilpoly.engine import (
    ClassifyOptions,
    ParamTuple,
    SearchRange,
    absolutely_simple_g2,
    certify_ordinary,
    certify_simple,
    classify,
    construct,
    modular_irreducibility_certificate,
    search,
    search_summary,
    tuple_is_valid,
    validate_tuple,
)
from weilpoly.errors import InvalidTuple, WrongDimension
from weilpoly.intpoly import (
    IntPoly,
    check_q_symmetry,
    cyclotomic,
    minimal_poly_of_power,
    reduce_mod,
)
from weilpoly.modpoly import ModPoly, is_irreducible_mod
from weilpoly.numtheory import primes_first

T1 = ParamTuple(rho=5, b=1, r=2, p=5, n=1, m=0)
T2 = ParamTuple(rho=5, b=1, r=3, p=2, n=2, m=0)
T3 = ParamTuple(rho=5, b=2, r=2, p=5, n=1, m=0)


def P(*coeffs):
    return IntPoly(coeffs)


class TestValidateTuple:
    def test_all_pass_fixtures(self):
        assert tuple_is_valid(T1)
        assert tuple_is_valid(T2)

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
        assert "q = 1 mod r" in exc.value.failures

    def test_middle_coefficient_tracks_m(self):
        # m = 2 is excluded here: -1/2 = 2 mod 5
        t = ParamTuple(rho=5, b=1, r=2, p=5, n=1, m=1)
        assert construct(t).middle == 3

    def test_size_caps(self):
        big = ParamTuple(rho=1009, b=1, r=11, p=23, n=1, m=0)
        with pytest.raises(InvalidTuple) as exc:
            construct(big)
        assert "degree cap" in exc.value.failures
        assert construct(big, max_two_g=2000).poly.degree == 1008


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
                expected = is_irreducible_mod(ModPoly(r, reduce_mod(phi, r)))
                assert certify_simple(f, r, rho, b) == expected, (rho, b, r)
                answers.add(expected)
        assert answers == {True, False}

    def test_absolutely_simple_g2(self):
        assert absolutely_simple_g2(check_q_symmetry(P(25, 5, 1, 1, 1), 2, 5))
        assert absolutely_simple_g2(check_q_symmetry(P(16, 4, 1, 1, 1), 2, 4))
        # a_1 = 0 always fails (0 is in the excluded set)
        assert not absolutely_simple_g2(check_q_symmetry(P(25, 0, 2, 0, 1), 2, 5))

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            absolutely_simple_g2(check_q_symmetry(P(8, 4, 2, 5, 1, 1, 1), 3, 2))

    def test_power_test_witnesses(self):
        scan = engine._absolute_simplicity
        f20 = construct(T3)
        assert scan(f20, T3) == ("certified_no", 5, None)
        assert scan(f20, None) == ("certified_no", 5, None)  # d = 2..4 drop nothing
        assert minimal_poly_of_power(f20.poly, 5).degree == 4

        # theta = i*sqrt(q): theta^2 = -q is rational
        assert scan(check_q_symmetry(P(5, 0, 1), 1, 5), None) == ("certified_no", 2, None)
        # no power up to 2g^2 = 18 drops the degree: no verdict
        t71 = ParamTuple(rho=7, b=1, r=3, p=13, n=1, m=0)
        assert scan(construct(t71), t71) == ("inconclusive", None, 18)

    def test_g2_rule_agrees_with_power_scan(self):
        # differential check of the coefficient rule against the scan over
        # d = 2..8, on every irreducible Weil quartic of a small grid
        # (irreducibility decided independently by sympy)
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
                    found[witness] += 1
        assert found == {None: 270, 2: 57, 3: 24, 4: 12, 6: 6}

    def test_modular_certificate_search(self):
        assert modular_irreducibility_certificate(P(25, 5, 1, 1, 1)) == 2
        assert modular_irreducibility_certificate(P(-1, 0, 1)) is None  # t^2 - 1


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

    def test_b2_witness_without_degree_drop_is_not_certified(self, monkeypatch):
        # if theta^5 did not lie in a proper subfield, the b = 2 witness
        # proves nothing: the general power scan decides instead
        monkeypatch.setattr(engine, "minimal_poly_of_power", lambda f, d, s: f)
        rep = classify(T3)
        assert rep.absolutely_simple == "inconclusive"
        assert rep.witness_d is None

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
        lines = []
        for f, q in inputs:
            rep = classify((f, q))
            record = [q, f.to_string(), rep.absolutely_simple, rep.witness_d, rep.power_test_bound]
            lines.append(json.dumps(record) + "\n")
        assert len(lines) == 775
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "4fd850d63667388b39b12f6aa0276085165144a088f7e80163c9be2a8b491801"

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
        a = classify(T1).to_json_line(include_timings=False)
        b = classify(T1).to_json_line(include_timings=False)
        assert a == b

    def test_numeric_option(self):
        rep = classify(T1, ClassifyOptions(with_numeric=True, precision_bits=128))
        assert rep.max_modulus_deviation is not None
        assert rep.max_modulus_deviation < 1e-12


class TestTheoremInvariants:
    def test_cyclotomic_congruence_small_sweep(self):
        rng = SearchRange(rhos=(5, 7), bs=(1, 2), q_max=16)
        count = 0
        for t in rng.candidate_tuples():
            if not tuple_is_valid(t):
                continue
            f = construct(t)
            assert reduce_mod(f.poly, t.r) == reduce_mod(cyclotomic(t.rho ** t.b), t.r)
            assert is_irreducible_mod(ModPoly.from_intpoly(f.poly, t.r))
            count += 1
        assert count > 0

    def test_b2_minimal_poly_degree(self):
        rng = SearchRange(rhos=(5,), bs=(2,), q_max=16)
        for t in rng.candidate_tuples():
            if not tuple_is_valid(t):
                continue
            f = construct(t)
            assert minimal_poly_of_power(f.poly, t.rho).degree == t.rho - 1

    def test_rho7_reductions_all_phi7(self):
        rng = SearchRange(rhos=(7,), bs=(1,), rs=(3,), q_max=25)
        target = reduce_mod(cyclotomic(7), 3)
        qs = set()
        for t in rng.candidate_tuples():
            if tuple_is_valid(t):
                assert reduce_mod(construct(t).poly, 3) == target
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

    def test_summary_counts(self):
        rng = SearchRange(rhos=(5,), bs=(1,), q_max=25)
        reports = list(search(rng))
        summary = search_summary(reports)
        assert summary["tuples"] == len(reports) > 0
        assert summary["q_polynomial"] == summary["tuples"]
        assert summary["absolutely_simple_yes"] == summary["tuples"]

    def test_validation_streams(self, monkeypatch):
        # the first report waits for its own tuple's validation only, not the
        # whole grid's (1,709 candidates here)
        validated = []
        is_valid = engine.tuple_is_valid
        monkeypatch.setattr(engine, "tuple_is_valid", lambda t: validated.append(t) or is_valid(t))
        next(search(SearchRange(rhos=(5, 7), bs=(1, 2), q_max=1024)))
        assert len(validated) == 1

    def test_workers_preserve_order_and_content(self):
        rng = SearchRange(rhos=(5,), bs=(1, 2), q_max=9)
        serial = [r.to_json_line(include_timings=False) for r in search(rng, workers=1)]
        parallel = [r.to_json_line(include_timings=False) for r in search(rng, workers=2)]
        assert serial == parallel

    def test_m_policy_all_supersets_corners(self):
        corners = SearchRange(rhos=(5,), bs=(1,), q_max=9, m_policy="corners")
        everything = SearchRange(rhos=(5,), bs=(1,), q_max=9, m_policy="all")
        corner_tuples = {t for t in corners.candidate_tuples() if tuple_is_valid(t)}
        all_tuples = [t for t in everything.candidate_tuples() if tuple_is_valid(t)]
        assert corner_tuples <= set(all_tuples)
        assert len(all_tuples) > len(corner_tuples)
        # every enumerated m respects the bound
        from weilpoly.surd import m_max

        for t in all_tuples:
            assert 0 <= t.m <= m_max(t.q, t.dpow, t.r)


class TestReportSerialization:
    def test_stable_field_contract(self):
        from weilpoly.engine import CSV_FIELDS, REPORT_FIELDS, TUPLE_KEYS

        rep = classify(T1)
        d = rep.to_json_dict(include_timings=True)
        assert list(d)[: len(REPORT_FIELDS) + 1] == ["tuple", *REPORT_FIELDS]
        assert list(d["tuple"]) == list(TUPLE_KEYS)
        assert "timings_ms" in d
        assert len(rep.to_csv_row()) == len(CSV_FIELDS)

    def test_invalid_tuple_is_data_not_exception(self):
        bad = ParamTuple(rho=5, b=1, r=2, p=2, n=2, m=0)
        rep = classify(bad)
        assert rep.method == "invalid_tuple"
        assert not rep.is_q_polynomial
        assert "q = 1 mod r" in rep.failed_preconditions
        assert "failed_preconditions" in rep.to_json_dict()
