"""In-memory spans around the program's public functions.

`install` wraps each traced function in the module that defines it and in
every weilpoly module that imported it by name; methods are wrapped on their
class.  Every call records a span (name, start, end, parent) in flat arrays.
A span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# the stages classify times in each report's timings_ms
STAGES = ("construct", "exact_modulus", "ll_check", "simple", "abs_simple", "numeric")

# (module, attribute) of each traced function; the span is "module.attribute".
FUNCTIONS = (
    ("engine", "classify"),
    ("engine", "validate_tuple"),
    ("engine", "modular_irreducibility_certificate"),
    ("numtheory", "is_prime"),
    ("intpoly", "power_sums"),
    ("intpoly", "minimal_poly_of_power"),
    ("intpoly", "squarefree_part"),
    ("intpoly", "poly_gcd"),
    ("intpoly", "pseudo_remainder"),
    ("analysis", "exact_modulus_check"),
    ("analysis", "real_weil_transform"),
    ("analysis", "sturm_chain"),
    ("analysis", "numeric_roots"),
    ("surd", "ll_unit_circle_check"),
    ("modpoly", "is_irreducible_mod"),
    ("modpoly", "powmod"),
    ("modpoly", "ff_gcd"),
)

# (module, class, method, span name)
METHODS = (
    ("intpoly", "IntPoly", "__mul__", "intpoly.IntPoly.mul"),
    ("surd", "QuadSurd", "__mul__", "surd.QuadSurd.mul"),
    ("surd", "QuadSurd", "sign", "surd.QuadSurd.sign"),
)

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in FUNCTIONS) + tuple(n for *_, n in METHODS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, work=None):
        """fn inside a span; `work(*args)` adds to the count "<name>.work"."""
        nid = len(self.names)
        self.names.append(name)
        spans_name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        counts, work_key = self.counts, name + ".work"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                counts[work_key] += work(*args)
            idx = len(start)
            spans_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def count(self, name: str, fn):
        """fn, counting its calls under `name` without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self time in ms)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {nm: (calls[k], self_s[k] * 1000.0) for k, nm in enumerate(self.names)}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        pid, cid = self.names.index(parent_name), self.names.index(child_name)
        return sum(
            1
            for i in range(len(self.start))
            if self.name[i] == cid and self.parent[i] >= 0 and self.name[self.parent[i]] == pid
        )


def _replace_everywhere(orig, new) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "weilpoly" or modname.startswith("weilpoly."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the imported weilpoly package."""
    import mpmath

    for modname, attr in FUNCTIONS:
        orig = getattr(sys.modules[f"weilpoly.{modname}"], attr)
        _replace_everywhere(orig, tracer.wrap(f"{modname}.{attr}", orig))
    for modname, clsname, meth, name in METHODS:
        cls = getattr(sys.modules[f"weilpoly.{modname}"], clsname)
        work = (lambda a, b: len(a.coeffs) * len(b.coeffs)) if name == "intpoly.IntPoly.mul" else None
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), work))
    mpmath.polyroots = tracer.count("mpmath.polyroots", mpmath.polyroots)
