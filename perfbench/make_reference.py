"""Regenerate the reference verdicts in perfbench/reference/ from the current
program.  Run it only when a change to the program is meant to change a
verdict, and list the rows that changed.

Usage: python3 perfbench/make_reference.py [workload ...]

The numeric workload's verdicts are taken without the numeric oracle, which
does not affect them; its deviations are held to checks.NUMERIC_TOLERANCE.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from workloads import WORKLOADS, verify_pool  # noqa: E402

from weilpoly import engine  # noqa: E402
from weilpoly.intpoly import IntPoly  # noqa: E402


def reference(w) -> dict:
    if not w.is_search:
        return {"rows": [checks.verdict(engine.classify((IntPoly(c), q))) for _, c, q, _ in verify_pool()]}
    rng = engine.SearchRange(rhos=w.rhos, bs=w.bs, rs=w.rs, q_min=4, q_max=w.q_max)
    return {"rows": {checks.tuple_key(rep.tuple.as_dict()): checks.verdict(rep) for rep in engine.search(rng)}}


def main(names: list[str]) -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        ref = reference(WORKLOADS[name])
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
        print(f"{path.name}: {len(ref['rows'])} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
