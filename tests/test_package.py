"""Tooling checks on the package source and the benchmark's tracer."""

import ast
import contextlib
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from perfbench_inputs import verify_pool

from weilpoly.engine import ClassifyOptions, classify
from weilpoly.intpoly import IntPoly

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
    # the process pool is loaded by a multi-worker search, only when it runs;
    # the numeric oracle computes in integers and never loads mpmath
    code = (
        "import sys, weilpoly.cli; "
        "code = weilpoly.cli.main(['construct', '--rho', '5', '--b', '1', '--r', '2', "
        "'--p', '5', '--n', '1', '--m', '0', '--numeric']); "
        "print(code, [m for m in ('mpmath', 'concurrent.futures.process') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"


# the defs in src/ that no src/ caller reaches, each with the reason it stays
NOT_CALLED_FROM_SRC = {
    "cli.main": "the console-script entry point",
    "cli._Parser.error": "argparse calls it",
    "surd.QuadSurd.__mul__": "the benchmark's tracer wraps it by name",
    # without these, == and hashing fall back to identity and truthiness to
    # always-true, silently; repr is what a failed check prints
    "intpoly.IntPoly.__eq__": "value equality",
    "intpoly.IntPoly.__hash__": "hashing by value, to match __eq__",
    "intpoly.IntPoly.__bool__": "the zero polynomial is false",
    "intpoly.IntPoly.__repr__": "readable in failure messages",
}

# the CLI runs of the call trace, each with its exit code
TRACED_RUNS = [
    (["search", "--rho", "5,7", "--b", "1,2", "--q-max", "16", "--no-timings", "--out", "{dir}/s.jsonl"], 0),
    (["search", "--rho", "5,7", "--b", "1,2", "--q-max", "16", "--format", "csv", "--out", "{dir}/s.csv"], 0),
    (["search", "--rho", "5,7", "--b", "1,2", "--q-max", "16", "--workers", "2", "--out", "{dir}/w.jsonl"], 0),
    (["report", "--in", "{dir}/s.jsonl"], 0),
    (["construct", "--rho", "5", "--b", "1", "--r", "2", "--p", "5", "--n", "1", "--m", "0"], 0),
    (["construct", "--rho", "5", "--b", "1", "--r", "2", "--p", "5", "--n", "1", "--m", "0", "--numeric"], 0),
    (["construct", "--rho", "5", "--b", "1", "--r", "2", "--p", "2", "--n", "2", "--m", "0"], 2),
    (["verify", "--poly", "25,5,1,1,1", "--q", "5"], 0),
    (["verify", "--poly", "8,4,2,5,1,1,1", "--q", "2"], 3),
    (["verify", "--poly", "26,5,1,1,1", "--q", "5"], 3),
    (["verify", "--poly", "25,5,1,1,1", "--q", "5", "--numeric"], 0),
]


def test_verify_pool_reports_are_pinned():
    # every report field of the benchmark's raw inputs, which a change to a
    # certificate path must leave as they are
    rows = [classify((IntPoly(coeffs), q)).to_json_dict(include_timings=False) for _, coeffs, q, _ in verify_pool()]
    assert len(rows) == 3000
    digest = hashlib.sha256("".join(json.dumps(row) + "\n" for row in rows).encode()).hexdigest()
    assert digest == "482102aefaf0e5fa293e5e152f18639420022c0a5041925f83d950dd3439b09f"
    # each witness is the order of a ratio of two roots, so no multiple of the
    # certificate prime r (of 4 at r = 2)
    witnesses = Counter((row["witness_d"], row["simple_r"]) for row in rows if row["witness_d"] is not None)
    assert witnesses == {(5, 2): 478}
    assert all(d % (4 if r == 2 else r) for d, r in witnesses)


def _trace_src_calls(directory: str) -> dict:
    """Run TRACED_RUNS and every 15th input of the benchmark's verify_raw pool
    through the CLI under sys.setprofile.  Returns the exit codes and the
    (file, first line) of every src/ function that a src/ caller called."""
    from weilpoly import cli

    runs = [[arg.format(dir=directory) for arg in argv] for argv, _ in TRACED_RUNS]
    runs += [
        ["verify", "--poly", ",".join(map(str, coeffs)), "--q", str(q)]
        for _, coeffs, q, _ in verify_pool()[::15]
    ]
    src_files = {mod.__file__ for name, mod in sys.modules.items() if name.startswith("weilpoly")}
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in src_files:
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename in src_files:
                seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv in runs]
        finally:
            sys.setprofile(None)
    return {"codes": codes, "seen": sorted(seen)}


def _src_definitions() -> dict[str, tuple[str, int]]:
    """Qualified name -> (file, first line) of every def in src/, nested ones
    included; the first line is that of the first decorator, as in
    co_firstlineno."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    defs[name] = (str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, path.stem)
    return defs


def test_every_def_in_src_has_a_src_caller(tmp_path):
    # a call trace sees methods, nested functions and dunders, which a name
    # search cannot: every def in src/ is called from src/ on small CLI
    # inputs, or is listed in NOT_CALLED_FROM_SRC with its reason
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    trace = json.loads(out.stdout)
    assert trace["codes"][: len(TRACED_RUNS)] == [code for _, code in TRACED_RUNS]
    seen = {(str(Path(file).resolve()), line) for file, line in trace["seen"]}
    untraced = {name for name, where in _src_definitions().items() if where not in seen}
    assert sorted(untraced - NOT_CALLED_FROM_SRC.keys()) == []  # delete each, or list it with its reason
    assert sorted(NOT_CALLED_FROM_SRC.keys() - untraced) == []  # called from src/, or gone: unlist each


if __name__ == "__main__":
    print(json.dumps(_trace_src_calls(sys.argv[1])))
