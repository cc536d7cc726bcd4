"""Tooling checks on the package source and the benchmark's tracer."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from weilpoly.engine import ClassifyOptions

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


def test_src_reads_no_environment():
    # every setting is an explicit option, so no module reads os.environ or os.getenv
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv")
    ]
    assert found == []


def test_classify_options_is_the_numeric_switch():
    # the numeric oracle chooses its own precision from the coefficients
    assert [f.name for f in dataclasses.fields(ClassifyOptions)] == ["with_numeric"]


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


def test_every_definition_used_in_src():
    # src/ holds no code that only tests call: every top-level function and
    # class is named somewhere in src/ outside its own definition
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        others = "\n".join(t for p, t in texts.items() if p != path)
        for node in ast.parse(text, str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[: start - 1] + lines[node.end_lineno :] + [others])
            if not re.search(rf"\b{re.escape(node.name)}\b", rest):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_every_error_type_is_caught_in_src():
    # errors.py holds only the types a caller catches: each one but the base
    # class is named by an except clause in src/
    tree = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"WeilPolyError"}
    caught = {
        name.id
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in ast.walk(node.type)
        if isinstance(name, ast.Name)
    }
    assert sorted(defined - caught) == []


def test_package_root_imports_nothing():
    # every name is imported from its defining module, so the package root
    # is not a second import path
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_cli_import_leaves_heavy_modules_unloaded():
    # mpmath is loaded by the numeric oracle and the process pool by a
    # multi-worker search, each only when it runs
    code = (
        "import sys, weilpoly.cli; "
        "print([m for m in ('mpmath', 'concurrent.futures.process') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
