"""Tooling checks on the package source and the benchmark's tracer."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weilpoly"


def test_no_assert_in_src():
    # python -O strips asserts, so no verdict may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_names_resolve():
    # the benchmark's tracer patches these by name; a rename in src/ must fail here
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines names only; install() is not called
    missing = []
    for modname, attr in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"weilpoly.{modname}"), attr, None)):
            missing.append(f"{modname}.{attr}")
    for modname, clsname, meth, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"weilpoly.{modname}"), clsname, None)
        if not callable(getattr(cls, meth, None)):
            missing.append(f"{modname}.{clsname}.{meth}")
    assert missing == []
