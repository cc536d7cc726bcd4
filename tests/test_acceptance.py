"""Acceptance suite: every criterion is exercised at its stated tolerance.

Each test prints one PASS/FAIL line in the terminal summary (see conftest).
The criteria pin down: the two rejection fixtures, the full construction
sweep with zero theorem violations, the dimension-2 and root-power absolute
simplicity results, the cyclotomic factorization profiles, exactness of the
m bound, exact/numeric oracle agreement, and byte-level determinism of the
sweep output.
"""

import hashlib
import random
import time

import mpmath
import pytest
from ddf_oracle import cyclotomic, guerrier_check

from weilpoly.analysis import exact_modulus_check, numeric_roots
from weilpoly.engine import (
    ParamTuple,
    SearchRange,
    absolutely_simple_g2,
    certify_ordinary,
    certify_simple,
    classify,
    construct,
    modular_irreducibility_certificate,
    validate_tuple,
)
from weilpoly.intpoly import (
    IntPoly,
    check_q_symmetry,
    minimal_poly_of_power,
)
from weilpoly.modpoly import reduce_mod
from weilpoly.numtheory import primes_first
from weilpoly.surd import ll_unit_circle_check, m_max

COUNTEREXAMPLE_DEG6 = IntPoly([8, 4, 2, 5, 1, 1, 1])  # t^6+t^5+t^4+5t^3+2t^2+4t+8, q=2
COUNTEREXAMPLE_Q8 = IntPoly([64, 16, 2, 2, 1])  # t^4+2t^3+2t^2+16t+64, q=8


@pytest.fixture(scope="module")
def sweep_tuples():
    """rho in {5,7}, b in {1,2}, r the least prime primitive root mod rho^2,
    prime powers q <= 64 with q = 1 mod r, m in {0, 1, m_max}."""
    rng = SearchRange(rhos=(5, 7), bs=(1, 2), rs=None, q_max=64, m_policy="corners")
    tuples = [t for t in rng.candidate_tuples() if all(c.passed for c in validate_tuple(t))]
    assert tuples
    return tuples


def test_ac1_degree6_counterexample_rejected():
    start = time.perf_counter()
    f = check_q_symmetry(COUNTEREXAMPLE_DEG6, 3, 2)
    assert not exact_modulus_check(f).passed

    report = numeric_roots(COUNTEREXAMPLE_DEG6, 128, q=2)
    on_circle = [d for d in report.modulus_deviations if d < 1e-9]
    off_circle = [d for d in report.modulus_deviations if d > 0.1]
    assert len(on_circle) == 4
    assert len(off_circle) == 2
    real_roots = [z for z in report.roots if z.imag == 0]
    assert len(real_roots) == 2
    assert time.perf_counter() - start < 1.0


def test_ac2_q8_counterexample_not_weil():
    start = time.perf_counter()
    f = check_q_symmetry(COUNTEREXAMPLE_Q8, 2, 8)
    assert exact_modulus_check(f).passed  # it IS a q-polynomial
    assert not certify_ordinary(f, 2)  # gcd(a_2, p) = gcd(2, 2) = 2
    rep = classify((COUNTEREXAMPLE_Q8, 8))
    assert rep.is_q_polynomial and rep.ordinary is False
    assert rep.simple is not False  # reducibility is never claimed
    assert time.perf_counter() - start < 1.0


def test_ac2_q8_modular_irreducibility_certificate():
    """The stated certificate cannot exist: t^4+2t^3+2t^2+16t+64 is
    irreducible over Q but its Galois group is the Klein four-group, whose
    elements have cycle types 1^4 and 2^2 only.  By Dedekind's theorem its
    reduction mod EVERY prime splits into factors of degree at most 2, so no
    single-prime irreducibility certificate exists at any search depth.
    This test states the requirement faithfully and is expected to fail;
    the pipeline correctly reports 'inconclusive' instead.
    """
    assert modular_irreducibility_certificate(COUNTEREXAMPLE_Q8, tries=25) is not None


def test_ac3_construction_sweep_zero_violations(sweep_tuples):
    start = time.perf_counter()
    violations = []
    for t in sweep_tuples:
        f = construct(t)
        if reduce_mod(f.poly.coeffs, t.r) != reduce_mod(cyclotomic(t.rho ** t.b).coeffs, t.r):
            violations.append((t, "cyclotomic congruence"))
        if not exact_modulus_check(f).passed:
            violations.append((t, "exact modulus"))
        if not ll_unit_circle_check(f):
            violations.append((t, "unit-circle S < 0"))
        if not certify_ordinary(f, t.p):
            violations.append((t, "ordinary"))
        if not certify_simple(f, t.r, t.rho, t.b):
            violations.append((t, "irreducibility certificate"))
    assert violations == []
    assert time.perf_counter() - start < 120.0


def test_ac4_dimension2_absolute_simplicity(sweep_tuples):
    checked = 0
    for t in sweep_tuples:
        if t.rho != 5 or t.b != 1:
            continue
        f = construct(t)
        a1, a2, q = f.a(1), f.a(2), t.q
        assert a1 == 1
        assert 1 not in {0, q + a2, 2 * a2, 3 * a2 - 3 * q}
        assert absolutely_simple_g2(f)
        checked += 1
    assert checked > 0


def test_ac5_power_minimal_polynomials(sweep_tuples):
    for t in sweep_tuples:
        if t.b != 2:
            continue
        f = construct(t)
        mp = minimal_poly_of_power(f.poly, t.rho)
        assert mp.degree == t.rho - 1
        assert mp.degree < 2 * t.g

    # spot fixture at 2g = 20, bounded runtime
    start = time.perf_counter()
    spot = construct(ParamTuple(rho=5, b=2, r=2, p=5, n=1, m=0))
    mp = minimal_poly_of_power(spot.poly, 5)
    assert mp == IntPoly([9765625, 3125, 1, 1, 1])
    assert time.perf_counter() - start < 30.0


def test_ac6_cyclotomic_factorization_profiles():
    start = time.perf_counter()
    for n in (5, 7, 25, 49, 121, 125):
        primes = [r for r in primes_first(40) if n % r != 0][:10]
        assert len(primes) == 10
        for r in primes:
            assert guerrier_check(n, r), (n, r)
    assert time.perf_counter() - start < 30.0


def test_ac7_m_bound_exactness():
    rng = random.Random(20260810)
    small_primes = primes_first(60)
    mismatches = []
    for _ in range(100):
        p = rng.choice(small_primes)
        n_min = 1
        while p ** n_min < 4:
            n_min += 1
        n_max = n_min
        while p ** (n_max + 1) <= 10 ** 6:
            n_max += 1
        q = p ** rng.randint(n_min, n_max)
        d = rng.randint(1, 3)
        r = rng.randint(2, 50)
        exact = m_max(q, d, r)
        with mpmath.workprec(200):
            qd = mpmath.mpf(q) ** d
            val = (2 * qd - 2 * mpmath.sqrt(qd) - 1) / r
            expected = int(mpmath.floor(val))
        if exact != expected:
            mismatches.append((q, d, r, exact, expected))
    assert mismatches == []


def _random_symmetric(rng):
    g = rng.randint(1, 6)
    q = rng.choice([2, 3, 4, 5, 9])
    coeffs = [0] * (2 * g + 1)
    coeffs[2 * g] = 1
    coeffs[0] = q ** g
    for j in range(1, g):
        a = rng.randint(-8, 8)
        coeffs[2 * g - j] = a
        coeffs[j] = q ** (g - j) * a
    coeffs[g] = rng.randint(-8, 8)
    return check_q_symmetry(IntPoly(coeffs), g, q)


def test_ac8_exact_and_numeric_oracles_agree():
    rng = random.Random(113355)
    disagreements = []
    for _ in range(200):
        f = _random_symmetric(rng)
        exact = exact_modulus_check(f).passed
        report = numeric_roots(f.poly, 128, q=f.q)
        numeric = report.max_modulus_deviation < 1e-9
        if exact != numeric:
            disagreements.append((f.poly.to_string(), f.q, exact, report.max_modulus_deviation))
    assert disagreements == []


def test_ac9_sweep_determinism(tmp_path):
    from weilpoly.cli import main

    args = [
        "search", "--rho", "5,7", "--b", "1,2", "--q-max", "64",
        "--no-timings",
    ]
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--out", str(paths[2]), "--workers", "2"]) == 0
    blob = paths[0].read_bytes()
    assert blob  # nonempty sweep
    assert blob == paths[1].read_bytes()
    assert blob == paths[2].read_bytes()
    # the headline sweep's bytes, JSONL and CSV, are pinned
    assert hashlib.sha256(blob).hexdigest() == (
        "22e7b9180188fa99051487f1ba20759ed560f10a15b5b61b6ccdc8b8ca6c2c33"
    )
    csv_path = tmp_path / "d.csv"
    assert main(args + ["--format", "csv", "--out", str(csv_path)]) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "d1892fbb6dfe66036e165434c21d6d014862f3f5f31c29f16bf6140f723a061d"
    )
