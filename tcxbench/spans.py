"""Per-layer spans for the traced run, recorded from outside the package.

`Tracer.install` wraps the public functions named in SPANS and rebinds each
wrapper in every `tropcomplex` module namespace that holds the original, so
calls between modules are seen too.  Spans stay in memory as
[name, parent, start, end, child time, op id]; a span's self time is its
duration minus the time its direct children cover.  The untraced run never
installs a wrapper.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (tropcomplex module, attribute); "Class.method" wraps a method.
SPANS = {
    "serialize.load": ("serialize", "load_fixture_file"),
    "delta.build": ("delta", "DeltaComplex.__init__"),
    "structure.weak": ("structure", "check_weak"),
    "structure.local_matrix": ("structure", "local_matrix"),
    "structure.classify": ("structure", "classify"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.smith": ("linalg", "smith_normal_form"),
    "linalg.inertia": ("linalg", "inertia"),
    "linalg.feasible_strict": ("linalg", "feasible_strict"),
    "divisors.div": ("divisors", "div_vertex_function"),
    "divisors.cartier": ("divisors", "local_cartier_test"),
    "divisors.weil": ("divisors", "weil_test"),
    "divisors.class_group": ("divisors", "class_group"),
    "divisors.lin_equiv": ("divisors", "lin_equiv_witness"),
    "curves.germ_space": ("curves", "germ_space"),
    "curves.balanced": ("curves", "is_balanced"),
    "curves.intersect": ("curves", "intersect_degree"),
    "embedded.load": ("embedded", "load_embedded"),
    "embedded.derive": ("embedded", "derive_structure"),
    "embedded.robust": ("embedded", "robustness_check"),
    "embedded.push": ("embedded", "push_forward_and_compare"),
    "degeneration.build": ("degeneration", "build_structure_from_degeneration"),
    "degeneration.specialize": ("degeneration", "specialize"),
    "degeneration.verify": ("degeneration", "verify_theorem"),
    "cli": ("cli", "main"),
}

# The per-layer metrics reported, in BENCHMARK.json order: (name, unit).
# All but max_bits and the two trace ratios are means per traced operation.
# Each group names the end-to-end metrics it should move, and where.
METRICS = [
    # setup_s on torus-session, op_p50_ms and ops_per_s on cli-mix;
    # nothing on chip-smith.
    ("delta.build.self_s", "s/op"), ("delta.build.calls", "1/op"),
    ("delta.build.simplices", "1/op"), ("delta.build.repeat", "1/op"),
    # op_p50_ms, ops_per_s and ok_ratio on chip-smith; flat on the other
    # two, which run many tiny Smith forms.
    ("linalg.smith.self_s", "s/op"), ("linalg.smith.calls", "1/op"),
    ("linalg.smith.cells", "1/op"), ("linalg.smith.repeat", "1/op"),
    ("linalg.smith.max_bits", "bits"),
    # ops_per_s on cli-mix, where classify and cartier recompute.
    ("structure.local_matrix.calls", "1/op"), ("structure.local_matrix.repeat", "1/op"),
    ("divisors.cartier.self_s", "s/op"), ("divisors.cartier.calls", "1/op"),
    ("divisors.cartier.repeat", "1/op"),
    ("cli.self_s", "s/op"),
    # op_p50_ms on torus-session.
    ("structure.classify.self_s", "s/op"),
    ("linalg.inertia.self_s", "s/op"), ("linalg.inertia.calls", "1/op"),
    ("divisors.weil.self_s", "s/op"),
    # op_p95_ms on torus-session.
    ("curves.germ_space.self_s", "s/op"), ("curves.germ_space.calls", "1/op"),
    ("curves.intersect.self_s", "s/op"),
    ("linalg.rref.self_s", "s/op"),
    # op_p50_ms and op_p95_ms on cli-mix.
    ("embedded.load.self_s", "s/op"), ("embedded.derive.self_s", "s/op"),
    ("embedded.robust.self_s", "s/op"), ("embedded.push.self_s", "s/op"),
    ("linalg.feasible_strict.self_s", "s/op"), ("linalg.feasible_strict.calls", "1/op"),
    ("serialize.load.self_s", "s/op"),
    ("degeneration.build.self_s", "s/op"), ("degeneration.verify.self_s", "s/op"),
    ("degeneration.specialize.self_s", "s/op"),
    # op_p50_ms on chip-smith.
    ("divisors.class_group.self_s", "s/op"), ("divisors.lin_equiv.self_s", "s/op"),
    # Traced over untraced op time, and the share of traced op time that
    # top-level spans cover.
    ("trace.overhead_ratio", "ratio"),
    ("trace.top_share", "ratio"),
]


def _bits(matrix):
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None           # id of the operation being traced, or None
        self.seen = defaultdict(set)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self._undo = []

    # -- per-span bookkeeping beyond time ------------------------------------

    def _note(self, name, key, size_name=None, size=0):
        """Count one call's size, and a repeat when an equal input was
        already seen by the same span name within the same operation."""
        if key in self.seen[name]:
            self.counts[name + ".repeat"] += 1
        else:
            self.seen[name].add(key)
        if size_name:
            self.counts[name + "." + size_name] += size

    def _before(self, name, args):
        if name == "linalg.smith":
            a = args[0]
            key = tuple(tuple(row) for row in a)
            self._note(name, key, "cells", len(a) * (len(a[0]) if a else 0))
        elif name == "structure.local_matrix":
            self._note(name, (id(args[0]), tuple(args[1])))
        elif name == "divisors.cartier":
            self._note(name, (id(args[0]), args[1], tuple(args[2])))

    def _after(self, name, args, result):
        if name == "delta.build":
            X = args[0]
            self._note(name, (X.n, X.counts, X.faces), "simplices", sum(X.counts))
        elif name == "linalg.smith":
            _, u, v = result
            self.max_bits = max(self.max_bits, _bits(u), _bits(v))

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._before(name, args)
            parent = stack[-1] if stack else -1
            rec = [name, parent, perf_counter(), 0.0, 0.0, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = end = perf_counter()
                if stack:
                    stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[2]
            self._after(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tropcomplex" or n.startswith("tropcomplex.")]
        for name, (modname, attr) in SPANS.items():
            owner = sys.modules["tropcomplex." + modname]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                holders = [(owner, meth)]
            else:
                holders = [(m, k) for m in modules for k, v in vars(m).items()
                           if v is getattr(owner, attr)]
            orig = getattr(*holders[0])
            wrapped = self._wrap(name, orig)
            for holder, key in holders:
                self._undo.append((holder, key, orig))
                setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def begin_op(self, op_id):
        self.op = op_id
        self.stack.clear()
        self.seen.clear()

    def end_op(self):
        self.op = None

    # -- results ---------------------------------------------------------------

    def metrics(self, nops, op_seconds, untraced_seconds):
        """Per-op means of self time, calls and counts; the largest Smith
        transform entry; the traced/untraced op-time ratio; and the share of
        traced op time that top-level spans cover."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        for name, parent, start, end, child, _ in self.spans:
            if not end:
                continue  # cut by the deadline inside the bookkeeping
            calls[name] += 1
            self_s[name] += (end - start) - child
            if parent < 0:
                top += end - start
        out = {}
        for metric, unit in METRICS:
            base, _, kind = metric.rpartition(".")
            if metric == "trace.overhead_ratio":
                value = op_seconds / untraced_seconds
            elif metric == "trace.top_share":
                value = top / op_seconds
            elif kind == "max_bits":
                value = self.max_bits
            elif kind == "self_s":
                value = self_s[base] / nops
            elif kind == "calls":
                value = calls[base] / nops
            else:
                value = self.counts[metric] / nops
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Spans as gzipped JSON lines: index, name, parent index (-1 at top
        level), start, end (perf_counter seconds), op id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, start, end, _, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, start, end, op]) + "\n")
