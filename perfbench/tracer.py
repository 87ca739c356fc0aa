"""Outside-in tracing of the ``emzv`` layers.

The tracer replaces chosen functions and methods with wrappers, without
touching the package's source.  A function is replaced in every ``emzv``
module namespace that bound it (``coeff_mul`` is imported into ``ncalg``,
``eisalg`` and ``qseries``; ``iei_qexp`` recurses through its own module
global), a method on its class.  After patching, no ``emzv`` module may
still hold the original object; otherwise tracing fails loudly instead of
silently missing calls.

Boundaries are of two kinds:

* spans -- (name, start, end, parent) records kept in memory until the pass
  ends; a name's self time is its span time minus the time covered by its
  child spans and by the leaves called directly inside it;
* leaves -- the very hot ``CoeffElem`` methods and ``coeff_mul``, recorded
  as a call count and a total time only.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

from workloads import CUSP_DEGREES

# (module, attribute path, kind).  The name used in metrics is
# "<module>.<attribute path>", with dunder methods written without
# underscores ("CoeffElem.__add__" -> "CoeffElem.add").
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("coeffring", "loads_mzv_table", "span"),
    ("coeffring", "coeff_mul", "leaf"),
    ("coeffring", "CoeffElem.__add__", "leaf"),
    ("coeffring", "CoeffElem.scale", "leaf"),
    ("ncalg", "build_Ainf", "span"),
    ("ncalg", "nc_mul", "span"),
    ("ncalg", "build_phi", "span"),
    ("ncalg", "nc_inv", "span"),
    ("ncalg", "nc_exp", "span"),
    ("ncalg", "shuffle_regularize", "span"),
    ("ncalg", "extract_gamma", "span"),
    ("ncalg", "triangular_index_solve", "span"),
    ("decomp", "decompose", "span"),
    ("decomp", "diffeq_expand", "span"),
    ("decomp", "find_emzv_relations", "span"),
    ("decomp", "gseries_decompose", "span"),
    ("derlie", "NCDerivation.apply", "span"),
    ("derlie", "LieDerivation.apply", "span"),
    ("derlie", "find_lie_relations", "span"),
    ("derlie", "uu_dual_membership", "span"),
    ("eisalg", "iei_qexp", "span"),
    ("eisalg", "epoly_to_qexp", "span"),
    ("eisalg", "EPoly.__add__", "span"),
    ("qseries", "qt_mul", "span"),
    ("qseries", "qt_antider", "span"),
    ("linalg", "rref", "span"),
    ("words", "shuffle_multiset", "span"),
)

# Boundaries that must record at least one call on each workload; a traced
# pass that misses one fails.
EXPECTED: dict[str, tuple[str, ...]] = {
    "cusp": (
        "coeffring.loads_mzv_table", "coeffring.coeff_mul", "coeffring.CoeffElem.add",
        "coeffring.CoeffElem.scale", "ncalg.build_Ainf", "ncalg.nc_mul", "ncalg.build_phi",
        "ncalg.nc_inv", "ncalg.nc_exp", "ncalg.shuffle_regularize", "ncalg.extract_gamma",
        "ncalg.triangular_index_solve", "decomp.decompose", "decomp.diffeq_expand",
        "decomp.find_emzv_relations", "eisalg.EPoly.add", "linalg.rref",
        "words.shuffle_multiset",
    ),
    "crosscheck": (
        "coeffring.loads_mzv_table", "coeffring.coeff_mul", "coeffring.CoeffElem.add",
        "coeffring.CoeffElem.scale", "ncalg.build_Ainf", "ncalg.nc_mul", "ncalg.build_phi",
        "ncalg.nc_inv", "ncalg.nc_exp", "ncalg.shuffle_regularize",
        "ncalg.triangular_index_solve", "decomp.gseries_decompose",
        "derlie.NCDerivation.apply", "eisalg.EPoly.add", "words.shuffle_multiset",
    ),
    "image": (
        "coeffring.loads_mzv_table", "coeffring.coeff_mul", "coeffring.CoeffElem.add",
        "coeffring.CoeffElem.scale", "decomp.decompose", "derlie.LieDerivation.apply",
        "derlie.find_lie_relations", "derlie.uu_dual_membership", "eisalg.iei_qexp",
        "eisalg.epoly_to_qexp", "eisalg.EPoly.add", "qseries.qt_mul", "qseries.qt_antider",
        "linalg.rref", "words.shuffle_multiset",
    ),
}

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json, which is the one list of metrics."""
    doc = json.loads(BENCHMARK.read_text("utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def metric_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__', '')}"


class TracingError(RuntimeError):
    pass


class Tracer:
    """Spans and leaf counters for one pass, plus the observations that
    turn them into the per-layer metrics (cache hits, degrees, sizes)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.leaf_inside: list[float] = []  # leaf time spent directly in span i
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, total seconds]
        self.hits: dict[str, int] = {}
        self.ainf_by_degree: dict[int, list[float]] = {}
        self.ainf_terms = 0
        self.rref_max_cells = 0

    # -- wrappers -----------------------------------------------------

    def span(
        self, name: str, fn: Callable, before: Callable | None = None, after: Callable | None = None
    ) -> Callable:
        """``before(args)`` runs ahead of the call, ``after(args, result, seconds)`` after it."""
        spans, leaf_inside, stack = self.spans, self.leaf_inside, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            leaf_inside.append(0.0)
            if before is not None:
                before(args)
            stack.append(i)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out, rec[2] - rec[1])
            return out

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        counter = self.leaves.setdefault(name, [0, 0.0])
        leaf_inside, stack = self.leaf_inside, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                counter[0] += 1
                counter[1] += dt
                if stack:
                    leaf_inside[stack[-1]] += dt

        return wrapper

    # -- observations ---------------------------------------------------

    def _hit(self, name: str) -> None:
        self.hits[name] = self.hits.get(name, 0) + 1

    def _observers(self) -> dict[str, tuple[Callable | None, Callable | None]]:
        """Per-boundary (before, after) hooks; the workloads call these
        functions with positional arguments only."""
        from emzv import eisalg

        def decompose(args):
            idx, table = args
            if tuple(int(k) for k in idx) in table.caches.get("decomp", {}):
                self._hit("decomp.decompose")

        def shuffle_regularize(args):
            word, table = args
            if word in table.caches.get("reg", {}):
                self._hit("ncalg.shuffle_regularize")

        def iei_qexp(args):
            word, order = args
            if (tuple(int(k) for k in word), order) in eisalg._iei_cache:
                self._hit("eisalg.iei_qexp")

        def rref(args):
            self.rref_max_cells = max(self.rref_max_cells, args[0].rows * args[0].cols)

        def build_ainf(args, out, seconds):
            self.ainf_by_degree.setdefault(args[0], []).append(seconds)
            self.ainf_terms = max(self.ainf_terms, len(out.coeffs))

        return {
            "decomp.decompose": (decompose, None),
            "ncalg.shuffle_regularize": (shuffle_regularize, None),
            "eisalg.iei_qexp": (iei_qexp, None),
            "linalg.rref": (rref, None),
            "ncalg.build_Ainf": (None, build_ainf),
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in every loaded ``emzv`` module."""
        import emzv.cli  # noqa: F401  (load every module that binds a name)
        import emzv.verify  # noqa: F401

        modules = [m for n, m in list(sys.modules.items()) if n == "emzv" or n.startswith("emzv.")]
        observers = self._observers()
        for module, path, kind in BOUNDARIES:
            name = metric_name(module, path)
            home = sys.modules[f"emzv.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self.leaf(name, orig) if kind == "leaf" else self.span(name, orig))
                continue
            orig = getattr(home, path)
            if kind == "leaf":
                new = self.leaf(name, orig)
            else:
                new = self.span(name, orig, *observers.get(name, (None, None)))
            for m in modules:
                if m.__dict__.get(path) is orig:
                    setattr(m, path, new)
            stale = [m.__name__ for m in modules for v in vars(m).values() if v is orig]
            if stale:
                raise TracingError(f"{name} still bound unwrapped in {stale}")

    # -- reduction --------------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        out = {name: calls for name, (calls, _) in self.leaves.items()}
        for rec in self.spans:
            out[rec[0]] = out.get(rec[0], 0) + 1
        return out

    def check_expected(self, workload: str) -> None:
        counts = self.call_counts()
        missing = [n for n in EXPECTED[workload] if not counts.get(n)]
        if missing:
            raise TracingError(f"no calls recorded on {workload} for: {', '.join(missing)}")

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            own = rec[2] - rec[1] - child[i] - self.leaf_inside[i]
            out[rec[0]] = out.get(rec[0], 0.0) + own
        for name, (_, total) in self.leaves.items():
            out[name] = total
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        self_s = self.self_times()
        counts = self.call_counts()
        load_times = [r[2] - r[1] for r in self.spans if r[0] == "coeffring.loads_mzv_table"]

        def ratio(name: str) -> float:
            n = counts.get(name, 0)
            return self.hits.get(name, 0) / n if n else 0.0

        out: dict[str, float] = {
            "coeffring.load_mzv_table.s": statistics.median(load_times) if load_times else 0.0,
            "ncalg.ainf_terms": self.ainf_terms,
            "linalg.rref.max_cells": self.rref_max_cells,
            "decomp.decompose.hit_ratio": ratio("decomp.decompose"),
            "eisalg.iei_qexp.hit_ratio": ratio("eisalg.iei_qexp"),
            "ncalg.shuffle_regularize.hit_ratio": ratio("ncalg.shuffle_regularize"),
        }
        for d in CUSP_DEGREES:
            times = self.ainf_by_degree.get(d)
            out[f"ncalg.build_Ainf.d{d}_s"] = statistics.median(times) if times else 0.0
        for metric in declared_units("per_layer"):
            if metric in out or metric == "trace.overhead_s":
                continue
            base, _, what = metric.rpartition(".")
            out[metric] = counts.get(base, 0) if what == "calls" else self_s.get(base, 0.0)
        return out
