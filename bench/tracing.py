"""Spans around the public functions of each ``hsfinite`` layer.

``Tracer.install`` replaces every listed function in every ``hsfinite.*``
module namespace that holds it, because ``from .forms import multiply`` binds
a separate name in each importer.  Private helpers are not wrapped, so their
time is charged to the nearest public caller.  Spans stay in memory as
``(function, start, end, parent span, item)``; self time and the witness
counters are derived from them after the repetition.  Untraced repetitions
run with no wrapper installed.
"""

from __future__ import annotations

import sys
import time

LAYERS = {
    "forms": ("parse_form", "multiply", "substitute", "gcd_forms",
              "multiplicity_partition", "rational_root_points"),
    "rational_linalg": ("rref", "contains"),
    "ideals": ("parse_ideal_text", "component", "hilbert_samuel",
               "common_factor", "power_pairing", "substitute_ideal",
               "equal_ideals"),
    "sequences": ("enumerate_sequences", "classify"),
    "catalog": ("normal_forms", "are_isomorphic", "verify_catalog",
                "sample_ideal"),
    "cli": ("main",),
}
NAMES = tuple("%s.%s" % (module, fn)
              for module, fns in LAYERS.items() for fn in fns)
COUNTERS = (
    ("rational_linalg.rref.rows_in", "count"),
    ("rational_linalg.rref.rank_out", "count"),
    ("catalog.are_isomorphic.witness_s", "s"),
    ("catalog.are_isomorphic.invariant_s", "s"),
    ("catalog.are_isomorphic.candidates", "count"),
    ("catalog.are_isomorphic.hit_ratio", "ratio"),
)
# Metrics that must repeat exactly between traced repetitions.
EXACT = tuple(n + ".calls" for n in NAMES) + (
    "rational_linalg.rref.rows_in", "rational_linalg.rref.rank_out",
    "catalog.are_isomorphic.candidates", "catalog.are_isomorphic.hit_ratio")

clock = time.thread_time


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = -1
        self.rows_in = 0
        self.rank_out = 0
        self.isomorphic = 0
        self._stack = [-1]
        self._patches = []

    def install(self):
        package = sys.modules["hsfinite"]
        targets = {}
        for fid, name in enumerate(NAMES):
            module, fn = name.split(".")
            original = getattr(getattr(package, module), fn)
            targets[id(original)] = self._wrap(fid, name, original)
        for modname, module in list(sys.modules.items()):
            if modname != "hsfinite" and not modname.startswith("hsfinite."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fid, name, fn):
        spans, stack = self.spans, self._stack
        if name == "rational_linalg.rref":
            inner = fn

            def fn(rows, *args, **kwargs):
                rows = list(rows)
                basis = inner(rows, *args, **kwargs)
                self.rows_in += len(rows)
                self.rank_out += basis.rank
                return basis
        elif name == "catalog.are_isomorphic":
            inner_iso = fn

            def fn(*args, **kwargs):
                verdict = inner_iso(*args, **kwargs)
                self.isomorphic += verdict.kind == "isomorphic"
                return verdict

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, self.item)

        return traced

    def metrics(self, scale):
        """Per-function calls, self and total seconds (multiplied by
        ``scale``), plus the counters."""
        spans = self.spans
        children = [0.0] * len(spans)
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        total_s = [0.0] * len(NAMES)
        iso = NAMES.index("catalog.are_isomorphic")
        witness = {NAMES.index("ideals.substitute_ideal"),
                   NAMES.index("ideals.equal_ideals")}
        witness_s = 0.0
        candidates = 0
        for index, (fid, start, end, parent, _) in enumerate(spans):
            duration = end - start
            calls[fid] += 1
            self_s[fid] += duration - children[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != fid:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total_s[fid] += duration
            if fid in witness and parent >= 0 and spans[parent][0] == iso:
                witness_s += duration
                candidates += fid == NAMES.index("ideals.substitute_ideal")
        out = {}
        for fid, name in enumerate(NAMES):
            out[name + ".calls"] = calls[fid]
            out[name + ".self_s"] = scale * self_s[fid]
            out[name + ".total_s"] = scale * total_s[fid]
        out["rational_linalg.rref.rows_in"] = self.rows_in
        out["rational_linalg.rref.rank_out"] = self.rank_out
        out["catalog.are_isomorphic.witness_s"] = scale * witness_s
        out["catalog.are_isomorphic.invariant_s"] = scale * (
            total_s[iso] - witness_s)
        out["catalog.are_isomorphic.candidates"] = candidates
        out["catalog.are_isomorphic.hit_ratio"] = (
            self.isomorphic / candidates if candidates else 0.0)
        return out

    def write(self, handle, rep):
        for index, (fid, start, end, parent, item) in enumerate(self.spans):
            handle.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                rep, index, NAMES[fid], start, end, parent, item))


def metric_units():
    units = {}
    for name in NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        units[name + ".total_s"] = "s"
    units.update(COUNTERS)
    units["trace_overhead"] = "ratio"
    return units
