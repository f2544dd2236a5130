"""Span recording around calls into the package's modules, and the per-layer
metrics derived from the spans.

``install`` wraps the public functions of each ``wcrte`` module (plus the
few private helpers named in ``_HOOKS``) wherever the package refers to
them, so calls that one module makes into another are recorded without
changing the package's code. Spans live in memory until the traced run ends.
A span's self time is its duration minus the part of it that its child spans
cover; spans opened on a worker thread take the innermost span open on the
main thread as their parent, so parallel children are merged, not summed.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ESTIMATOR_KINDS = ("empirical", "vasicek", "ebrahimi", "modified_n", "lstat")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        outer = stack or self._main_stack
        sp = Span(next(self._ids), name, time.perf_counter(), 0.0, outer[-1].id if outer else None, attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(kids[s.id], s.start, s.end) for s in spans}


# --- interposition --------------------------------------------------------------


def _cells(args, result):
    return {"cells": len(result.cells)}


def _table(args, result):
    return {"table": int(args[0])}


# (module, attribute, span name, annotate(args, result) -> attrs or None)
_HOOKS = (
    *(("wcrte.estimators", f"{m}_{k}", f"estimators.{k}", None)
      for m in ("wcrte", "wcre") for k in ESTIMATOR_KINDS),
    ("wcrte.estimators", "wcrte_lstat_variance", "estimators.variance", None),
    ("wcrte.estimators", "wcre_lstat_variance", "estimators.variance", None),
    ("wcrte.estimators", "estimate", "estimators.dispatch", None),
    ("wcrte.mc", "run_study", "mc.run_study", _cells),
    ("wcrte.distributions", "closed_wcrte", "distributions.truth", None),
    ("wcrte.distributions", "closed_wcre", "distributions.truth", None),
    ("wcrte.distributions", "wcrte_by_quadrature", "distributions.truth", None),
    ("wcrte.gof", "critical_values", "gof.critical_values", None),
    ("wcrte.gof", "power_study", "gof.power_study", None),
    ("wcrte.gof", "_competitor_null_stats", "gof.statistic", None),
    ("wcrte.reference", "verify_table", "reference.verify_table", _table),
    ("wcrte.reference", "load_reference_tables", "reference.load", None),
    ("wcrte.sample", "read_sample", "sample.read", None),
    ("wcrte.cli", "main", "cli.main", None),
)
# Stream constructors whose generators' draws count as "mc.draw".
_STREAMS = (("mc_stream", "mc"), ("gof_null_stream", "null"), ("gof_alternative_stream", "alt"))


def _wrap(rec: SpanRecorder, fn, name: str, annotate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name) as sp:
            result = fn(*args, **kwargs)
            if annotate is not None:
                sp.attrs.update(annotate(args, result))
            return result
    return traced


class _TracedStream:
    """A generator whose ``random`` draws are recorded as ``mc.draw`` spans."""

    def __init__(self, rec: SpanRecorder, gen, purpose: str, key) -> None:
        self._rec, self._gen, self._purpose, self._key = rec, gen, purpose, key

    def random(self, *args, **kwargs):
        with self._rec.span("mc.draw", purpose=self._purpose, key=self._key) as sp:
            out = self._gen.random(*args, **kwargs)
        rows, n = out.shape if out.ndim == 2 else (1, out.size)
        sp.attrs.update(rows=rows, n=n, bytes=out.nbytes)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _wrap_stream(rec: SpanRecorder, fn, purpose: str):
    @functools.wraps(fn)
    def traced(*key):
        with rec.span("mc.draw", purpose=purpose):
            gen = fn(*key)
        return _TracedStream(rec, gen, purpose, key)
    return traced


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(rec: SpanRecorder):
    """Wrap the hooked functions in every loaded ``wcrte`` module; return undo.

    Hooks whose target no longer exists are skipped, so a renamed function
    reads as zero in its metric instead of breaking the benchmark. Caches on
    hooked functions are emptied so a cached load is timed once per install.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "wcrte" or name.startswith("wcrte."))]
    undo = []

    def replace(orig, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))

    for modname, attr, name, annotate in _HOOKS:
        orig = getattr(sys.modules.get(modname), attr, None)
        if callable(orig):
            if hasattr(orig, "cache_clear"):
                orig.cache_clear()
            replace(orig, _wrap(rec, orig, name, annotate))
    for attr, purpose in _STREAMS:
        orig = getattr(sys.modules.get("wcrte.mc"), attr, None)
        if callable(orig):
            replace(orig, _wrap_stream(rec, orig, purpose))
    model = getattr(sys.modules.get("wcrte.distributions"), "Model", None)
    for cls in _subclasses(model) if model is not None else ():
        orig = vars(cls).get("quantile")
        if callable(orig):
            setattr(cls, "quantile", _wrap(rec, orig, "distributions.quantile", None))
            undo.append((cls, "quantile", orig))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return uninstall


# --- per-layer metrics -----------------------------------------------------------

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("estimators.self_s", "s"),
    ("estimators.calls", "count"),
    *((f"estimators.{k}.self_s", "s") for k in (*ESTIMATOR_KINDS, "variance")),
    ("estimators.evals_per_draw", "count"),
    ("mc.draw.self_s", "s"),
    ("mc.rows_drawn", "count"),
    ("mc.draw_bytes", "bytes"),
    ("mc.run_study.self_s", "s"),
    ("mc.blocks", "count"),
    ("mc.cells", "count"),
    ("distributions.quantile.self_s", "s"),
    ("distributions.truth.self_s", "s"),
    ("distributions.import_s", "s"),
    ("wcrte.import_s", "s"),
    ("gof.critical_values.self_s", "s"),
    ("gof.critical_values.calls", "count"),
    ("gof.null_batches_drawn", "count"),
    ("gof.null_batches_distinct", "count"),
    ("gof.null_reuse", "ratio"),
    ("gof.power_study.self_s", "s"),
    ("gof.statistic.self_s", "s"),
    ("reference.load_s", "s"),
    *((f"reference.group{k}_s", "s") for k in range(2, 9)),
    ("reference.self_s", "s"),
    ("sample.read_s", "s"),
    ("cli.self_s", "s"),
    ("process.minor_faults", "count"),
    ("process.sys_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overlap_s", "s"),
)


def layer_metrics(spans, traced_walls: list[float], plain_walls: list[float],
                  measured: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    ``spans`` come from the passes whose wall times are ``traced_walls``;
    ``plain_walls`` are wall times of untraced passes of the same workload.
    ``measured`` holds the metrics taken outside the spans: import times,
    and minor faults and system time per traced pass.
    """
    passes = len(traced_walls)
    own = self_times(spans)
    self_by, dur_by, count_by = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        self_by[s.name] += own[s.id]
        dur_by[s.name] += s.end - s.start
        count_by[s.name] += 1
    draws = [s for s in spans if s.name == "mc.draw" and "rows" in s.attrs]
    null_keys = [(s.attrs["key"], s.attrs["rows"], s.attrs["n"]) for s in draws if s.attrs["purpose"] == "null"]
    calls = sum(count_by[f"estimators.{k}"] for k in ESTIMATOR_KINDS)
    roots = sum(s.end - s.start for s in spans if s.parent is None)

    v = {
        "estimators.self_s": sum(t for name, t in self_by.items() if name.startswith("estimators.")),
        "estimators.calls": calls,
        **{f"estimators.{k}.self_s": self_by[f"estimators.{k}"] for k in (*ESTIMATOR_KINDS, "variance")},
        "estimators.evals_per_draw": calls / max(1, len(draws) + count_by["sample.read"]),
        "mc.draw.self_s": self_by["mc.draw"],
        "mc.rows_drawn": sum(s.attrs["rows"] for s in draws),
        "mc.draw_bytes": sum(s.attrs["bytes"] for s in draws),
        "mc.run_study.self_s": self_by["mc.run_study"],
        "mc.blocks": sum(1 for s in draws if s.attrs["purpose"] == "mc"),
        "mc.cells": sum(s.attrs.get("cells", 0) for s in spans if s.name == "mc.run_study"),
        "distributions.quantile.self_s": self_by["distributions.quantile"],
        "distributions.truth.self_s": self_by["distributions.truth"],
        "gof.critical_values.self_s": self_by["gof.critical_values"],
        "gof.critical_values.calls": count_by["gof.critical_values"],
        "gof.null_batches_drawn": len(null_keys),
        "gof.null_batches_distinct": len(set(null_keys)),
        "gof.power_study.self_s": self_by["gof.power_study"],
        "gof.statistic.self_s": self_by["gof.statistic"],
        "reference.load_s": dur_by["reference.load"],
        **{f"reference.group{k}_s": sum(s.end - s.start for s in spans
                                        if s.name == "reference.verify_table" and s.attrs.get("table") == k)
           for k in range(2, 9)},
        "reference.self_s": sum(t for name, t in self_by.items() if name.startswith("reference.")),
        "sample.read_s": dur_by["sample.read"],
        "cli.self_s": self_by["cli.main"],
        "trace.unattributed_s": sum(traced_walls) - roots,
        "trace.overlap_s": sum(own.values()) - roots,
    }
    # Ratios and the distinct null batches (every pass draws the same ones)
    # are not summed over passes.
    whole = ("estimators.evals_per_draw", "gof.null_batches_distinct")
    v.update({k: x / passes for k, x in v.items() if k not in whole})
    v["gof.null_reuse"] = v["gof.null_batches_distinct"] / v["gof.null_batches_drawn"] if null_keys else 0.0
    v.update(measured)
    v["trace.wall_s"] = statistics.median(traced_walls)
    v["trace.overhead_frac"] = v["trace.wall_s"] / statistics.median(plain_walls) - 1.0
    return {name: float(v[name]) for name, _ in PER_LAYER}
