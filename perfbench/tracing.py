"""Spans and counts at the layer boundaries of hardymeans.

The tracer replaces each wrapped function by a wrapper in every
``hardymeans`` module that holds it, so calls made through module-level
names (``hardy.tanh_sinh``, ``means.bracketed_root``, ...) are seen too.
Each wrapped call is one span: name, start, end, parent span and the
operation it belongs to.  Spans stay in memory and are written out when
the run ends.  A span's self time is its duration less the time its
child spans cover; it is accumulated as the spans close.

Counts taken from return values (quadrature levels, series terms, root
iterations) and from counting the function handed to the root finders
(function evaluations) are recorded at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps

import numpy as np


def _count_tanh_sinh(counts, res):
    counts["quadrature.tanh_sinh.levels"] += res.levels
    counts["quadrature.tanh_sinh.unconverged"] += not res.converged


def _count_F_eval(counts, res):
    counts["hardy.F_eval.terms"] += res.terms


def _count_bracketed_root(counts, res):
    counts["rootfind.bracketed_root.iterations"] += res.iterations


# (module, attribute, span name, counter of the result, index of a function
# argument whose evaluations are counted)
_LAYERS = (
    ("quadrature", "tanh_sinh", "quadrature.tanh_sinh", _count_tanh_sinh,
     None),
    ("hardy", "solve_cef", "hardy.solve_cef", None, None),
    ("hardy", "F_eval", "hardy.F_eval", _count_F_eval, None),
    ("hardy", "constant_closed", "hardy.constant_closed", None, None),
    ("hardy", "detect_order", "hardy.detect_order", None, None),
    ("rootfind", "bracketed_root", "rootfind.bracketed_root",
     _count_bracketed_root, 0),
    ("rootfind", "expand_bracket_up", "rootfind.expand_bracket_up", None, 0),
    ("means", "prefix_values", "means.prefix_values", None, None),
    ("empirical", "verify_inequality", "empirical.verify_inequality",
     None, None),
    ("empirical", "hardy_ratio", "empirical.hardy_ratio", None, None),
    ("empirical", "est_lower_bound", "empirical.est_lower_bound", None, None),
    ("empirical", "genA_partial", "empirical.genA_partial", None, None),
)
_METHODS = (
    ("weights", "WeightSequence", "prefix_array", "weights.prefix_array"),
    ("weights", "WeightSequence", "lam_array", "weights.lam_array"),
)

SPAN_NAMES = tuple(l[2] for l in _LAYERS) + tuple(m[3] for m in _METHODS)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        # one [span index, child nanoseconds] pair per open span
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin_op(self, index: int, kind: str) -> None:
        """Open the root span of operation `index`; close with end_op."""
        name = "op." + kind
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.op = index
        self._open(self._ids[name])

    def end_op(self) -> None:
        self._close()

    def _open(self, name_id: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append([idx, 0])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        idx, child_ns = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, fn, name, on_result, feval_arg):
        tracer = self
        name_id = self._ids[name]
        feval_key = name + ".fevals"

        @wraps(fn)
        def traced(*args, **kwargs):
            if feval_arg is not None:
                f = args[feval_arg]

                def counted(x):
                    tracer.counts[feval_key] += 1
                    return f(x)

                args = args[:feval_arg] + (counted,) + args[feval_arg + 1:]
            tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever a hardymeans module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hardymeans" or n.startswith("hardymeans.")]
        for mod_name, attr, name, on_result, feval_arg in _LAYERS:
            original = getattr(sys.modules["hardymeans." + mod_name], attr)
            wrapper = self._wrap(original, name, on_result, feval_arg)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules["hardymeans." + mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, None, None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span, and the totals as JSON text, to a compressed
        .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            totals=np.array(json.dumps(self.totals())),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_op=np.frombuffer(self.span_op, dtype=np.int32),
            span_start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            span_end_ns=np.frombuffer(self.span_end, dtype=np.int64))

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "counts": dict(self.counts)}
