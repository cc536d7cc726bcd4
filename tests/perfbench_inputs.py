"""The benchmark's inputs, read from perfbench/workloads.py by path."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verify_pool() -> list:
    """The 3,000 bare (f, q) inputs of the benchmark's verify_raw workload, as
    entries (pool index, coefficients, q, family), family (rho, b) or None."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads.verify_pool()
