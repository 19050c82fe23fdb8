"""Span tracing of hopfforge from outside the package.

The package binds functions by name (``from .linalg import composite_map``),
so a wrapper is installed on every ``hopfforge.*`` module attribute that
is the same function object, and on the owning class for methods.  Spans
live in memory; ``uninstall`` puts every original back.

A span is ``[name, parent, start, end, child_time, outer, work]``: the
parent is an index into the span list (-1 at top level), ``child_time``
is the summed duration of direct children, ``outer`` is False when the
same name is already open further up the stack (so inclusive time is not
counted twice), and ``work`` holds the counts of the call.
"""

import os
import sys
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _source_bytes(args, kwargs, _result):
    src = _arg(args, kwargs, 0, "source")
    if isinstance(src, dict):
        return {"bytes": 0}
    text = str(src)
    if text.lstrip().startswith("{"):
        return {"bytes": len(text.encode("utf-8"))}
    return {"bytes": os.path.getsize(text) if os.path.isfile(text) else 0}


# (module, attribute path, metric prefix, fields, work counter)
# Fields: "calls", "self_s" (span minus children), "s" (inclusive), or a
# key of the work counter's dict, summed over calls.
SPECS = (
    ("hopfforge.linalg", "composite_map", "linalg.composite_map",
     ("calls", "columns", "nnz_out", "self_s"),
     lambda a, k, r: {"columns": _arg(a, k, 0, "dom").dim, "nnz_out": r.nnz}),
    ("hopfforge.linalg", "RowReducer.__init__", "linalg.RowReducer",
     ("calls", "cells", "self_s"),
     lambda a, k, r: {"cells": len(_arg(a, k, 1, "rows"))
                      * _arg(a, k, 2, "ncols")}),
    ("hopfforge.linalg", "Subspace.corestrict", "linalg.Subspace.corestrict",
     ("calls", "columns", "self_s"),
     lambda a, k, r: {"columns": _arg(a, k, 1, "m").dom.dim}),
    ("hopfforge.linalg", "LinMap.__init__", "linalg.LinMap.init",
     ("calls", "self_s"), None),
    ("hopfforge.linalg", "LinMap.__matmul__", "linalg.LinMap.matmul",
     ("calls", "self_s"), None),
    ("hopfforge.linalg", "LinMap.__eq__", "linalg.LinMap.eq",
     ("calls", "self_s"), None),
    ("hopfforge.linalg", "LinMap.tensor", "linalg.LinMap.tensor",
     ("calls", "self_s"), None),
    ("hopfforge.linalg", "try_inverse", "linalg.try_inverse",
     ("calls", "s"), None),
    ("hopfforge.hopf", "adjoint_action", "hopf.adjoint_action",
     ("calls", "columns", "s"),
     lambda a, k, r: {"columns": r.dom.dim}),
    ("hopfforge.hopf", "HopfProjection.__init__", "hopf.HopfProjection.init",
     ("calls", "s"), None),
    ("hopfforge.hopf", "check_morphism", "hopf.check_morphism",
     ("calls", "s"), None),
    ("hopfforge.hopf", "HopfAlgebra.__init__", "hopf.HopfAlgebra.init",
     ("calls", "s"), None),
    ("hopfforge.hopf", "check_hopf", "hopf.check_hopf", ("calls", "s"), None),
    ("hopfforge.hopf", "group_algebra", "hopf.group_algebra",
     ("calls", "s"), None),
    ("hopfforge.yd", "projection_yd", "yd.projection_yd", ("calls", "s"), None),
    ("hopfforge.yd", "check_yd", "yd.check_yd", ("calls", "s"), None),
    ("hopfforge.yd", "check_braided_hopf", "yd.check_braided_hopf",
     ("calls", "s"), None),
    ("hopfforge.yd", "check_braided_map", "yd.check_braided_map",
     ("calls", "s"), None),
    ("hopfforge.yd", "yd_braiding", "yd.yd_braiding", ("calls", "s"), None),
    ("hopfforge.yd", "smash_product", "yd.smash_product", ("calls", "s"), None),
    ("hopfforge.radford", "rker", "radford.rker", ("calls", "s"), None),
    ("hopfforge.radford", "kernel_generators", "radford.kernel_generators",
     ("calls", "s"), None),
    ("hopfforge.radford", "induced_braided_hopf",
     "radford.induced_braided_hopf", ("calls", "s"), None),
    ("hopfforge.radford", "bosonisation", "radford.bosonisation",
     ("calls", "s"), None),
    ("hopfforge.radford", "radford_iso", "radford.radford_iso",
     ("calls", "s"), None),
    ("hopfforge.simplicial", "nerve_of_crossed_module",
     "simplicial.nerve_of_crossed_module", ("calls", "s"), None),
    ("hopfforge.simplicial", "linearize", "simplicial.linearize",
     ("calls", "s"), None),
    ("hopfforge.simplicial", "verify_simplicial",
     "simplicial.verify_simplicial", ("calls", "s"), None),
    ("hopfforge.simplicial", "check_fg_commutation",
     "simplicial.check_fg_commutation", ("calls", "s"), None),
    ("hopfforge.simplicial", "dim2_pipeline", "simplicial.dim2_pipeline",
     ("calls", "s"), None),
    ("hopfforge.simplicial", "peiffer_pairing", "simplicial.peiffer_pairing",
     ("calls", "s"), None),
    ("hopfforge.simplicial", "extract_xmod", "simplicial.extract_xmod",
     ("calls", "s"), None),
    ("hopfforge.simplicial", "moore_group_oracle",
     "simplicial.moore_group_oracle", ("calls", "s"), None),
    ("hopfforge.io", "parse_definition", "io.parse_definition",
     ("calls", "bytes", "s"), _source_bytes),
    ("hopfforge.io", "dump_json", "io.dump_json", ("calls", "bytes", "s"),
     lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    ("hopfforge.io", "serialize", "io.serialize", ("calls", "s"), None),
    ("hopfforge.fixtures", "builtin_raw", "fixtures.builtin_raw",
     ("calls", "s"), None),
    ("hopfforge.report", "Report.equality", "report.Report.equality",
     ("calls", "s"), None),
    ("hopfforge.cli", "main", "cli.main", ("calls", "s"), None),
)

FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "B"}

# Metrics the benchmark adds beside the spans (name, unit, better).
EXTRA_METRICS = (
    ("cli.import_ms", "ms", "lower"),
    ("cli.numpy_import_ms", "ms", "lower"),
    ("cli.known_defect_calls", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.top_span_share", "share", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics():
    """[(name, unit, better)] of every metric a traced run reports."""
    out = []
    for _, _, prefix, fields, _ in SPECS:
        for f in fields:
            out.append((f"{prefix}.{f}", FIELD_UNITS.get(f, "count"),
                        "lower"))
    out.extend(EXTRA_METRICS)
    return out


class Tracer:
    """Records spans around the calls listed in SPECS while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = {}
        self._undo = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name, fn, work):
        spans, stack, open_ = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            depth = open_.get(name, 0)
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0,
                   0.0, depth == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                open_[name] = depth
                if rec[1] >= 0:
                    spans[rec[1]][4] += rec[3] - rec[2]
            if work is not None:
                rec[6] = work(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None
                and (n == "hopfforge" or n.startswith("hopfforge."))]
        for modname, path, prefix, _, work in SPECS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(prefix, orig, work))
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(prefix, orig, work)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def export(self):
        """Spans as JSON-ready lists, with times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [[n, p, s - t0, e - t0, c, o, w]
                for n, p, s, e, c, o, w in self.spans]


def aggregate(spans):
    """Per-layer sums over spans in exported form.

    Returns {metric name: value} for every SPECS field, plus the span
    count and the summed duration of top-level spans under "_top_s".
    """
    acc = {}
    top = 0.0
    for name, parent, start, end, child, outer, work in spans:
        dur = end - start
        a = acc.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += dur - child
        if outer:
            a["s"] += dur
        if work:
            for k, v in work.items():
                a[k] = a.get(k, 0) + v
        if parent < 0:
            top += dur
    out = {}
    for _, _, prefix, fields, _ in SPECS:
        a = acc.get(prefix, {})
        for f in fields:
            out[f"{prefix}.{f}"] = a.get(f, 0)
    out["trace.spans"] = len(spans)
    out["_top_s"] = top
    return out
