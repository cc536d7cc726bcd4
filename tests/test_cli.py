import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from weilpoly import analysis
from weilpoly.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli(*argv):
    """The CLI in its own process, so that a hang fails the test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "weilpoly.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )


class TestConstruct:
    def test_valid_tuple(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--rho", "5", "--b", "1", "--r", "2",
            "--p", "5", "--n", "1", "--m", "0",
        )
        assert code == 0
        assert "25,5,1,1,1" in out
        assert "absolutely_simple: certified_yes" in out

    def test_invalid_tuple_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--rho", "5", "--b", "1", "--r", "2",
            "--p", "2", "--n", "2", "--m", "0",
        )
        assert code == 2
        assert "q = 1 mod r" in out

    def test_over_the_degree_cap_exit_2(self, capsys):
        # 2g = 5^3 * 4 = 500 > 256; every other precondition holds
        code, out, _ = run(
            capsys, "construct", "--rho", "5", "--b", "4", "--r", "2",
            "--p", "11", "--n", "1", "--m", "0",
        )
        assert code == 2
        assert "degree cap" in out and "poly" not in out

    def test_large_b_refused_before_m_max(self, capsys):
        # 2g = 5^10 * 4; m_max would compute 11^(5^10), so the caps come first
        code, out, _ = run(
            capsys, "construct", "--rho", "5", "--b", "11", "--r", "2",
            "--p", "11", "--n", "1", "--m", "0",
        )
        assert code == 2
        assert "degree cap" in out and "m_max=None" in out

    def test_rho_past_the_degree_cap_exit_2(self):
        # 2g = rho - 1 > 256: the primitive root check fails undecided, since
        # deciding it would factor phi(rho^2); in its own process so that a
        # hang fails the test
        out = run_cli("construct", "--rho", "1000000007", "--b", "1", "--r", "2",
                      "--p", "5", "--n", "1", "--m", "0")
        assert out.returncode == 2
        assert "degree cap (2g=1000000006, cap=256)" in out.stdout
        assert "undecided past the degree cap" in out.stdout

    def test_over_the_field_size_cap_exit_2(self, capsys):
        # q = 11^5000 has more digits than int-to-str allows; it is never formed
        code, out, _ = run(
            capsys, "construct", "--rho", "5", "--b", "1", "--r", "2",
            "--p", "11", "--n", "5000", "--m", "0",
        )
        assert code == 2
        assert out == (
            "invalid tuple; failed preconditions:\n"
            "  - 0 <= m <= m_max (m=0, m_max=None)\n"
            "  - field size cap (q=11^5000, cap=4294967296)\n"
        )

    def test_nonprime_rho_exit_1(self, capsys):
        code, _, err = run(
            capsys, "construct", "--rho", "4", "--b", "1", "--r", "2",
            "--p", "5", "--n", "1", "--m", "0",
        )
        assert code == 1
        assert "prime" in err

    def test_malformed_int_exit_1(self, capsys):
        code, _, _ = run(
            capsys, "construct", "--rho", "five", "--b", "1", "--r", "2",
            "--p", "5", "--n", "1", "--m", "0",
        )
        assert code == 1


class TestVerify:
    def test_counterexample_degree6_exit_3(self, capsys):
        code, out, _ = run(capsys, "verify", "--poly", "8,4,2,5,1,1,1", "--q", "2")
        assert code == 3
        assert "is_q_polynomial: False" in out

    def test_counterexample_q8_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--poly", "64,16,2,2,1", "--q", "8")
        assert code == 0
        assert "ordinary: False" in out

    def test_odd_degree_exit_3(self, capsys):
        # a negative first coefficient goes after "=", or argparse reads it as a flag
        code, out, _ = run(capsys, "verify", "--poly=-8,0,0,1", "--q", "2")
        assert code == 3
        assert "method: shape" in out and "g: 0" in out

    def test_constructed_fixture_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--poly", "25,5,1,1,1", "--q", "5")
        assert code == 0

    def test_bad_poly_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "--poly", "1,oops,3", "--q", "5")
        assert code == 1

    def test_non_prime_power_q_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "--poly", "25,5,1,1,1", "--q", "12")
        assert code == 1
        assert "prime power" in err

    def test_numeric_oracle_failure_exit_1(self, capsys, monkeypatch):
        # iterates from equal real start points stay real, so they never reach
        # the nonreal roots and the certificate fails; without --numeric the
        # polynomial is reported as usual
        monkeypatch.setattr(analysis, "_seed_roots", lambda f: [2.0] * f.degree)
        poly = "625,250,75,60,61,12,3,2,1"
        code, out, err = run(capsys, "verify", "--poly", poly, "--q", "5", "--numeric")
        assert code == 1 and out == ""
        assert err == "error: numeric oracle: root iteration failed residual certification\n"
        code, out, _ = run(capsys, "verify", "--poly", poly, "--q", "5")
        assert code == 0 and "is_q_polynomial: True" in out

    def test_numeric_deviation_for_q_past_the_float_range(self, capsys):
        # q >= 2^1024 is no float; the deviation is taken at q / 4^k and z / 2^k
        q = 2 ** 1100
        code, out, err = run(capsys, "verify", "--poly", f"{q},0,1", "--q", str(q), "--numeric")
        assert code == 0 and err == "" and "max_modulus_deviation: 0.0\n" in out
        # two real roots off the circle, z / sqrt(q) = -(3 +/- sqrt(5)) / 2: not a
        # q-Weil polynomial, exit 3
        q = 3 ** 700
        code, out, err = run(capsys, "verify", "--poly", f"{q},{3 ** 351},1", "--q", str(q), "--numeric")
        assert code == 3 and err == "" and "max_modulus_deviation: 1.618033988749895\n" in out

    def test_numeric_deviation_for_a_close_root_pair(self, capsys):
        # two real roots -2^550 +/- about 2^275, 2^-274 apart relative to their
        # size: the sweeps separate them, and the deviation of about 2^-275
        # shows that they are off the circle, exit 3
        q = 2 ** 1100
        code, out, err = run(capsys, "verify", "--poly", f"{q},{2 ** 551 + 1},1", "--q", str(q), "--numeric")
        assert code == 3 and err == "" and "max_modulus_deviation: 1.6472184286297693e-83\n" in out

    def test_numeric_roots_past_the_float_range_exit_1(self, capsys):
        # a root near -2^1030 is certified but is no complex float
        q = 2 ** 1100
        code, out, err = run(capsys, "verify", "--poly", f"{q},{2 ** 1030},1", "--q", str(q), "--numeric")
        assert (code, out) == (1, "")
        assert err == "error: numeric oracle: a certified root is past the float range\n"
        # sqrt(q) = 2^1050 is past the float range, and the roots multiply to q:
        # refused before any iteration
        q = 2 ** 2100
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--poly", f"{q},0,1", "--q", str(q), "--numeric")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == "error: numeric oracle: sqrt(q) is past the float range, and so is a root\n"

    def test_search_numeric_oracle_failure_exit_1(self, capsys, monkeypatch, tmp_path):
        # the same failure from the second tuple on: the sweep keeps the
        # report it wrote, prints one error line and no summary, and exits 1
        full, partial = tmp_path / "full.jsonl", tmp_path / "partial.jsonl"
        argv = ("search", "--rho", "5", "--q-max", "11", "--numeric", "--no-timings", "--out")
        assert run(capsys, *argv, str(full))[0] == 0
        seeds, calls = analysis._seed_roots, []

        def seeds_then_equal_reals(f):
            calls.append(f)
            return seeds(f) if len(calls) == 1 else [2.0] * f.degree

        monkeypatch.setattr(analysis, "_seed_roots", seeds_then_equal_reals)
        code, out, err = run(capsys, *argv, str(partial))
        assert code == 1 and out == ""
        assert err == "error: numeric oracle: root iteration failed residual certification\n"
        assert partial.read_text() == full.read_text().splitlines(keepends=True)[0]


class TestSearch:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run(
                capsys, "search", "--rho", "5", "--b", "1", "--q-max", "16",
                "--no-timings", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()  # nonempty

    def test_numeric_sweep_is_pinned(self, capsys, tmp_path):
        # 65 tuples; pins the max_modulus_deviation bytes of the numeric oracle
        path = tmp_path / "numeric.jsonl"
        code, _, _ = run(
            capsys, "search", "--rho", "5", "--b", "1,2", "--q-max", "32",
            "--numeric", "--no-timings", "--out", str(path),
        )
        assert code == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 65
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "f6ecb4ce7cbcbeae639de7149164350f1fa370f16eec1dbe62d034dbc5b4ccae"
        # the verdicts are pinned apart from the deviations, so that a change
        # in the oracle's last bits shows apart from a changed verdict
        assert all(row.pop("max_modulus_deviation") < 1e-40 for row in rows)
        rest = "".join(json.dumps(row) + "\n" for row in rows).encode()
        assert hashlib.sha256(rest).hexdigest() == "2f9f3c5fce48a8bbd400a3fa2d97b29e7d992cfb15bb4f77c3c3b692a7f9c5b7"

    def test_numeric_workload_is_pinned(self, capsys, tmp_path):
        # the benchmark's numeric workload: 107 degree-20 tuples f(t) = F(t^5),
        # so every row's roots come from the iteration through R(t^e)
        path = tmp_path / "numeric.jsonl"
        code, _, _ = run(
            capsys, "search", "--rho", "5", "--b", "2", "--r", "2,3", "--q-max", "80",
            "--numeric", "--no-timings", "--out", str(path),
        )
        assert code == 0 and len(path.read_text().splitlines()) == 107
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "ab403c64784f8430667ef1afc261e911c37f4a9f9d7869bb5f4ca56a26b86e4e"

    @pytest.mark.parametrize(
        "flags, summary, table_digest",
        [
            pytest.param(
                ("--rho", "5,7", "--b", "1,2", "--q-max", "64"),
                "tuples=170 q_polynomial=170 ordinary=170 simple=170 absolutely_simple_yes=84 "
                "absolutely_simple_no=86 absolutely_simple_inconclusive=0 ll_passed=170",
                "836b526226530fa3d30bce692fbd4943fc3d88652c3aefa94fc227633b644ad6",
                id="headline",
            ),
            pytest.param(
                ("--rho", "5", "--b", "1,2", "--q-max", "32", "--numeric"),
                "tuples=65 q_polynomial=65 ordinary=65 simple=65 absolutely_simple_yes=32 "
                "absolutely_simple_no=33 absolutely_simple_inconclusive=0 ll_passed=65",
                "9001f2b193896711f17c131b734d6bf739c4536dae7dd718b551375dbdcbe4d2",
                id="numeric-max-dev",
            ),
        ],
    )
    def test_summary_and_report_table_are_pinned(self, capsys, tmp_path, flags, summary, table_digest):
        # the sweep's summary line and report's per-(rho, b) table of its rows
        path = tmp_path / "sweep.jsonl"
        code, _, err = run(capsys, "search", *flags, "--no-timings", "--out", str(path))
        assert code == 0 and err == summary + "\n"
        code, table, _ = run(capsys, "report", "--in", str(path))
        assert code == 0 and hashlib.sha256(table.encode()).hexdigest() == table_digest

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_q1024_sweep_is_pinned(self, capsys, tmp_path, workers):
        # 1,664 reports; each of its 278 (7,1) rows runs the whole
        # absolute-simplicity scan to 2g^2 = 18, which passes the order
        # bound D = 7 and so certifies absolute simplicity
        path = tmp_path / "sweep.jsonl"
        code, _, err = run(
            capsys, "search", "--rho", "5,7", "--b", "1,2", "--q-max", "1024",
            "--no-timings", "--workers", workers, "--out", str(path),
        )
        assert code == 0 and "absolutely_simple_yes=831 absolutely_simple_no=833 absolutely_simple_inconclusive=0 " in err
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "18f969c60c858f65268ea48337e76774488fc99269d1170fbe55eca8c6c71777"
        # no witness is a multiple of its certificate prime r (of 4 at r = 2):
        # the paper's witness rho^(b-1) is prime to r, and a scan's witness is
        # the order of a ratio of two roots
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        witnesses = Counter((row["witness_d"], row["simple_r"]) for row in rows if row["witness_d"] is not None)
        assert witnesses == {(5, 2): 554, (7, 3): 279}
        assert all(d % (4 if r == 2 else r) for d, r in witnesses)

    def test_rho11_sweep_is_pinned(self, capsys, tmp_path):
        # the 103 (11,1) reports of the benchmark's abs_scan grid, g = 5, r = 2:
        # each scan runs over the admissible d to 2g^2 = 50, passing the order
        # bound D = 22, and so certifies absolute simplicity
        path = tmp_path / "sweep.jsonl"
        code, _, err = run(capsys, "search", "--rho", "11", "--b", "1", "--q-max", "128", "--no-timings",
                           "--out", str(path))
        assert code == 0 and "tuples=103 " in err and "absolutely_simple_yes=103 " in err
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "9841997aeefddb517e5a0c4e1d80737cf0c2685fffaa90b30d13087b3503e246"

    def test_repeated_list_entries_count_once(self, capsys, tmp_path):
        # --rho, --b and --r are sets: a repeated entry adds no report
        once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
        _, _, err_once = run(capsys, "search", "--rho", "5", "--b", "1", "--r", "2", "--q-max", "12",
                             "--no-timings", "--out", str(once))
        _, _, err_twice = run(capsys, "search", "--rho", "5,5", "--b", "1,1", "--r", "2,2", "--q-max", "12",
                              "--no-timings", "--out", str(twice))
        assert err_once.startswith("tuples=9 ") and err_twice == err_once
        assert twice.read_bytes() == once.read_bytes()

    def test_empty_range(self, capsys, tmp_path):
        # q = 4 is in range but not 1 mod r = 2: a valid range without a tuple
        out_path = tmp_path / "empty.jsonl"
        code, out, err = run(
            capsys, "search", "--rho", "5", "--b", "1", "--q-max", "4",
            "--no-timings", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == "" and out == ""
        assert "tuples=0" in err

    def test_tuples_over_the_degree_cap_are_skipped(self, capsys, tmp_path):
        out_path = tmp_path / "capped.jsonl"
        code, _, err = run(
            capsys, "search", "--rho", "5", "--b", "4", "--q-max", "12",
            "--no-timings", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == ""
        assert "tuples=0" in err

    def test_rho_past_the_degree_cap_is_skipped_before_r(self):
        # 2g = rho - 1 > 256 at every b, so the sweep skips rho before it
        # looks for the least primitive root mod rho^2, which would factor
        # phi(rho^2); in its own process so that a hang fails the test
        out = run_cli("search", "--rho", "1000000007", "--q-max", "16")
        assert out.returncode == 0 and out.stdout == ""
        assert out.stderr.startswith("tuples=0 ")

    def test_large_b_is_skipped_before_m_max(self):
        # 2g = 5^10 * 4: the sweep decides the degree cap before computing
        # m_max = q^(5^10), in its own process so that a hang fails the test
        out = run_cli("search", "--rho", "5", "--b", "11", "--q-max", "12", "--no-timings")
        assert out.returncode == 0 and out.stdout == ""
        assert out.stderr.startswith("tuples=0 ")

    def test_q_past_the_field_size_cap_is_not_enumerated(self):
        # every q above 2^32 fails the field size cap, so the sweep stops there
        # instead of walking a trillion integers
        out = run_cli("search", "--rho", "5", "--q-min", "4294967290", "--q-max", "1099511627776",
                      "--no-timings")
        assert out.returncode == 0 and out.stderr.startswith("tuples=3 ")
        assert {json.loads(line)["q"] for line in out.stdout.splitlines()} == {4294967291}

    def test_stdout_pipes_into_report(self, capsys, tmp_path):
        # without --out only the reports go to stdout, so report reads them back
        code, out, err = run(capsys, "search", "--rho", "5", "--q-max", "20", "--no-timings")
        assert code == 0 and err.startswith("tuples=18 ")
        path = tmp_path / "piped.jsonl"
        path.write_text(out)
        code, table, err = run(capsys, "report", "--in", str(path))
        assert code == 0 and err == ""
        assert "certified_yes:18" in table

    @pytest.mark.parametrize("flag, value", [("--r", "0"), ("--r", "4"), ("--rho", "4,5"), ("--b", "0,1")])
    def test_malformed_range_exit_1(self, capsys, flag, value):
        # construct's rule for each flag holds for every entry of a search list
        code, out, err = run(capsys, "search", "--rho", "5", "--b", "1", "--q-max", "12", flag, value)
        assert code == 1 and out == ""
        assert f"error: {flag} must be" in err and f"(got {value.split(',')[0]})" in err

    @pytest.mark.parametrize("q_range", [("--q-min", "100", "--q-max", "10"), ("--q-max", "3"), ("--q-max", "-5"),
                                         ("--q-min", "5000000000", "--q-max", "5000000010")],
                             ids=["reversed", "below-4", "negative", "past-the-cap"])
    def test_empty_q_range_exit_1(self, capsys, q_range):
        # no q in [4, MAX_Q] is malformed input, not an empty sweep
        code, out, err = run(capsys, "search", "--rho", "5", *q_range)
        assert code == 1 and out == ""
        assert err.startswith("error: bad range: --q-min ") and "--q-max" in err and err.count("\n") == 1

    def test_bad_m_policy_exit_1(self, capsys):
        code, out, err = run(capsys, "search", "--rho", "5", "--q-max", "12", "--m-policy", "some")
        assert code == 1 and out == ""
        assert "error: argument --m-policy: invalid choice: 'some'" in err

    @pytest.mark.parametrize("flag, value", [("--rho", ""), ("--b", ","), ("--r", ",")])
    def test_empty_list_exit_1(self, capsys, flag, value):
        # a list with no entries is malformed input, not an empty sweep
        code, out, err = run(capsys, "search", "--rho", "5", "--b", "1", "--q-max", "12", flag, value)
        assert code == 1 and out == ""
        assert err == f"error: bad range: {flag} has no entries\n"

    def test_stray_commas_are_skipped(self, capsys):
        code, _, err = run(capsys, "search", "--rho", "5,,7", "--b", ",1,", "--q-max", "12", "--no-timings")
        assert code == 0
        assert err == run(capsys, "search", "--rho", "5,7", "--b", "1", "--q-max", "12", "--no-timings")[2]

    def test_summary_counts(self, capsys):
        code, out, err = run(capsys, "search", "--rho", "5", "--b", "1", "--q-max", "25", "--no-timings")
        counts = dict(item.split("=") for item in err.split())
        assert code == 0 and int(counts["tuples"]) == len(out.splitlines()) > 0
        assert counts["q_polynomial"] == counts["absolutely_simple_yes"] == counts["tuples"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, capsys, workers):
        code, out, err = run(capsys, "search", "--rho", "5", "--q-max", "9", "--workers", workers)
        assert code == 1 and out == ""
        assert "--workers" in err

    @pytest.mark.parametrize("workers", [str((os.cpu_count() or 1) + 1), "1000000"],
                             ids=["cpu-count-plus-1", "million"])
    def test_workers_past_the_cpu_count_exit_1(self, capsys, monkeypatch, workers):
        # a pool forks all its workers at once, so the bound is checked
        # before any search, and no process starts here
        def no_search(*args, **kwargs):
            raise AssertionError("search ran")

        monkeypatch.setattr("weilpoly.cli.search", no_search)
        code, out, err = run(capsys, "search", "--rho", "5", "--q-max", "9", "--workers", workers)
        assert code == 1 and out == ""
        assert err.startswith("error: --workers ") and err.count("\n") == 1

    def test_csv_jsonl_parity(self, capsys, tmp_path):
        jl, cv = tmp_path / "x.jsonl", tmp_path / "x.csv"
        summaries = [
            run(capsys, "search", "--rho", "5", "--b", "1,2", "--q-max", "9",
                "--no-timings", "--out", str(jl))[2],
            run(capsys, "search", "--rho", "5", "--b", "1,2", "--q-max", "9",
                "--no-timings", "--format", "csv", "--out", str(cv))[2],
        ]
        assert summaries == [
            "tuples=14 q_polynomial=14 ordinary=14 simple=14 absolutely_simple_yes=6 "
            "absolutely_simple_no=8 absolutely_simple_inconclusive=0 ll_passed=14\n"
        ] * 2
        json_rows = [json.loads(line) for line in jl.read_text().splitlines()]
        with open(cv, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(json_rows) == len(csv_rows)
        for jr, cr in zip(json_rows, csv_rows):
            tup = jr["tuple"] or {}
            for key in ("rho", "b", "r", "p", "n", "m"):
                assert cr[key] == str(tup.get(key, ""))
            for key in ("g", "q", "poly", "is_q_polynomial", "method", "ordinary",
                        "simple", "simple_r", "absolutely_simple", "witness_d",
                        "ll_passed", "max_modulus_deviation"):
                expected = jr.get(key)
                assert cr[key] == ("" if expected is None else str(expected)), key

    def test_timings_flag(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        run(capsys, "search", "--rho", "5", "--b", "1", "--q-max", "9", "--out", str(path))
        row = json.loads(path.read_text().splitlines()[0])
        assert "timings_ms" in row


class TestReport:
    def test_summary_table(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run(capsys, "search", "--rho", "5", "--b", "1,2", "--q-max", "9",
            "--no-timings", "--out", str(path))
        code, out, _ = run(capsys, "report", "--in", str(path))
        assert code == 0
        assert "certified_yes" in out
        assert "certified_no(d=5)" in out

    def test_rows_sort_numerically_bare_rows_first(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"tuple": {"rho": rho, "b": 1}} for rho in (11, 7, 5)] + [{"tuple": None}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out, _ = run(capsys, "report", "--in", str(path))
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[2:]] == ["-", "5", "7", "11"]

    def test_memory_stays_flat_as_the_input_grows(self, capsys, tmp_path):
        # each row is folded into its group as it is read, so ten copies of a
        # sweep's rows hold no more memory than one
        path, repeated = tmp_path / "sweep.jsonl", tmp_path / "repeated.jsonl"
        run(capsys, "search", "--rho", "5", "--b", "1,2", "--q-max", "64", "--no-timings", "--out", str(path))
        repeated.write_text(path.read_text() * 10)
        peaks, tables = [], []
        for p in (path, repeated):
            tracemalloc.start()
            try:
                code, out, _ = run(capsys, "report", "--in", str(p))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            tables.append(out)
        assert tables[1] != tables[0]  # the counts grew tenfold
        assert peaks[1] - peaks[0] < 64 * 1024

    def test_empty_input(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, out, _ = run(capsys, "report", "--in", str(path))
        assert code == 0

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--in", str(tmp_path / "nope.jsonl"))
        assert code == 1

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        code, _, _ = run(capsys, "report", "--in", str(path))
        assert code == 1

    @pytest.mark.parametrize("line", ["[1, 2]", '{"tuple": 5}'])
    def test_non_object_row_exit_1(self, capsys, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tuple": null}\n\n' + line + "\n")
        code, out, err = run(capsys, "report", "--in", str(path))
        assert code == 1 and out == ""
        assert "line 3" in err


    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param(
                '{"tuple": null, "max_modulus_deviation": "x"}',
                "max_modulus_deviation is neither null nor a number",
                id="text-deviation",
            ),
            pytest.param('{"tuple": {"rho": [1]}}', "tuple is neither null nor an object of integers", id="list-rho"),
        ],
    )
    def test_mistyped_field_exit_1(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        code, out, err = run(capsys, "report", "--in", str(path))
        assert code == 1 and out == ""
        assert f"line 1: {message}" in err


def test_usage_error_exit_1(capsys):
    assert main(["bogus-command"]) == 1
