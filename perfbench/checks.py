"""The correctness gate: every report against the paper and against the
reference verdicts kept in perfbench/reference/.

A verdict is [is_q_polynomial, ordinary, simple, absolutely_simple,
witness_d].  An inconclusive verdict (simple None, absolutely_simple
"inconclusive") may become a certificate; a certificate never changes.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NUMERIC_TOLERANCE = 1e-20  # bound on max | |z| - sqrt(q) | / sqrt(q) per report
CERTIFIED = ("certified_yes", "certified_no")


def verdict(rep) -> list:
    return [rep.is_q_polynomial, rep.ordinary, rep.simple, rep.absolutely_simple, rep.witness_d]


def tuple_key(t: dict) -> str:
    return ",".join(str(t[k]) for k in ("rho", "b", "r", "p", "n", "m"))


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def certificates(v: list) -> tuple[int, int]:
    """(certificates, decisions) among the simplicity and absolute-simplicity
    decisions the report reached."""
    _, _, simple, abs_simple, _ = v
    made = (simple is not None) + (abs_simple in CERTIFIED)
    return made, 1 + (abs_simple != "not_evaluated")


def stable(ref: list, new: list) -> bool:
    """True when `new` keeps every certificate of `ref`."""
    if ref[0] != new[0] or ref[1] != new[1]:
        return False
    if ref[2] is not None and new[2] != ref[2]:
        return False
    if ref[3] in CERTIFIED and new[3] != ref[3]:
        return False
    if ref[3] == "not_evaluated" and ref[2] is not None and new[3] != "not_evaluated":
        return False
    return new[3] != "certified_no" or isinstance(new[4], int)


def paper_ok(rho: int, b: int, v: list, raw: bool) -> bool:
    """The paper's claims for a member of the (rho, b) family: q-polynomial,
    ordinary and simple; absolutely simple for (5, 1); not absolutely simple,
    with a witness, for b >= 2.  Raw inputs may leave simplicity inconclusive."""
    qp, ordinary, simple, abs_simple, witness = v
    if qp is not True or ordinary is not True:
        return False
    if simple is None:
        return raw
    if simple is not True:
        return False
    if (rho, b) == (5, 1):
        return abs_simple == "certified_yes"
    if b >= 2:
        return abs_simple == "certified_no" and isinstance(witness, int)
    return True


def check_search(records: list, calls: list, ref: dict, numeric: bool) -> int:
    """Failures in a search workload.  A record is (tuple dict, verdict,
    max_modulus_deviation), or (None, error, None) when a call raised; a
    completed call, given as ((rho, b, r, q), tuple keys), must yield exactly
    the reference tuples of that chunk, in order."""
    rows = ref["rows"]
    failed = 0
    for tup, v, dev in records:
        refv = rows.get(tuple_key(tup)) if tup is not None else None
        good = refv is not None and stable(refv, v) and paper_ok(tup["rho"], tup["b"], v, raw=False)
        if numeric:
            good = good and dev is not None and dev < NUMERIC_TOLERANCE
        failed += not good
    expected: dict[tuple, list[str]] = {}
    for key in rows:
        rho, b, r, p, n, _ = map(int, key.split(","))
        expected.setdefault((rho, b, r, p ** n), []).append(key)
    return failed + sum(keys != expected.get(tuple(chunk)) for chunk, keys in calls)


def check_verify(records: list, ref: dict) -> int:
    """Failures in verify_raw.  A record is (pool index, verdict or error,
    family (rho, b) or None)."""
    rows = ref["rows"]
    failed = 0
    for idx, v, family in records:
        good = isinstance(v, list) and stable(rows[idx], v)
        if good and family is not None:
            good = paper_ok(family[0], family[1], v, raw=True)
        failed += not good
    return failed
