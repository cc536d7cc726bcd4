"""The traced run changes nothing and counts the same work every time.

  python3 -m pytest perfbench/test_trace.py

Each workload's traced run is made twice with one seed.  Both must pass the
correctness gate, which includes the traced verdicts equalling those of an
untraced run of the same inputs, and every work count and count ratio must
repeat exactly.  The metrics printed are those BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import per_layer  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

TIMED = ("_ms", ".ms", "overhead_ratio")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(workload):
    first, second = per_layer(workload, seed=7), per_layer(workload, seed=7)
    assert first["failed"] == 0 and second["failed"] == 0
    counts = {k: m["value"] for k, m in first["metrics"].items() if not k.endswith(TIMED)}
    again = {k: m["value"] for k, m in second["metrics"].items() if not k.endswith(TIMED)}
    assert counts == again
    assert counts["engine.classify.calls"] == WORKLOADS[workload].trace_reports
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload):
    w = WORKLOADS[workload]
    assert build_inputs(w, 3) == build_inputs(w, 3)
    assert sorted(map(str, build_inputs(w, 3))) == sorted(map(str, build_inputs(w, 4)))
