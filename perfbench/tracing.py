"""Traced run: spans around meemi's public functions, reduced to layer metrics.

Each traced function is wrapped once and the wrapper is bound under every
``meemi`` module namespace that holds the function (``meemi.evaluation.
build_index``, ``meemi.cli.load_space``, ...), so a call nested inside the
library opens a child span. A span records its name, start, end, parent
span and pass id, plus counts computed from the call's arguments and result
and, for retrieval and induction, the tracemalloc peak of the memory
allocated inside it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

MIB = 2**20


def _score_work(m: int, v: int, d: int) -> dict:
    """Work of one m x V score matrix over D dimensions, computed from sizes."""
    return {"gflop": 2.0 * m * v * d / 1e9, "score_mb": m * v * 8 / MIB}


def _rows(a) -> int:
    return np.atleast_2d(np.asarray(a)).shape[0]


def _count_load(args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args["path"])}


def _count_save(args, result):
    return {"rows": len(args["space"]), "bytes": os.path.getsize(args["path"])}


def _count_induce(args, result):
    pair, cap = args["aligned"], args["vocab_cap"]
    return _score_work(min(cap, len(pair.source)), min(cap, len(pair.target)), pair.source.dim)


def _count_build_index(args, result):
    space = args["space"]
    other = space if args["source_space"] is None else args["source_space"]
    return _score_work(len(space), len(other), space.dim)


def _count_cosine(args, result):
    space = args["space"]
    return _score_work(_rows(args["queries"]), len(space), space.dim)


def _count_csls(args, result):
    index = args["index"]
    return _score_work(_rows(args["queries"]), len(index), index.space.dim)


def _count_queries(args, result):
    return {"queries": result.resolved}


# layer -> [(reported function name, attribute in meemi.<layer>, counter)]
TRACED = {
    "embeddings": [("load_space", "load_space", _count_load),
                   ("save_space", "save_space", _count_save),
                   ("normalize_unit", "normalize_unit", None)],
    "lexicon": [("resolve", "resolve",
                 lambda a, r: {"pairs_in": len(a["lexicon"]), "pairs_kept": len(r[0])}),
                ("load_lexicon", "load_lexicon", None)],
    "solvers": [("fit_procrustes", "fit_procrustes", None),
                ("fit_least_squares", "fit_least_squares", None),
                ("apply_map", "apply_map", lambda a, r: {"rows": len(a["space"])})],
    "alignment": [("align_supervised", "align_supervised", None),
                  ("iterate_self_learning", "iterate_self_learning",
                   lambda a, r: {"iterations": r.iterations_run}),
                  ("induce_dictionary", "induce_dictionary", _count_induce),
                  ("mean_pair_cosine", "mean_pair_cosine", None)],
    "refinement": [("fit_meemi", "fit_meemi", None),
                   ("apply_meemi", "apply_meemi", None),
                   ("similarity_shift_report", "similarity_shift_report", None)],
    "retrieval": [("build_index", "build_index", _count_build_index),
                  ("batch_cosine_topk", "batch_cosine_topk", _count_cosine),
                  ("batch_csls_topk", "batch_csls_topk", _count_csls)],
    "evaluation": [("eval_bli", "eval_bli", _count_queries),
                   ("eval_similarity", "eval_similarity", _count_queries),
                   ("eval_hypernyms", "eval_hypernyms", _count_queries),
                   ("fit_hypernym_projection", "fit_hypernym_projection", None)],
    "cli": [("align", "cmd_align", None), ("refine", "cmd_refine", None),
            ("eval_bli", "cmd_eval_bli", None), ("eval_sim", "cmd_eval_sim", None),
            ("eval_hyper", "cmd_eval_hyper", None)],
}
COUNTS = {
    "embeddings.load_space": ["rows", "bytes"],
    "embeddings.save_space": ["rows", "bytes"],
    "lexicon.resolve": ["pairs_in", "pairs_kept"],
    "solvers.apply_map": ["rows"],
    "alignment.iterate_self_learning": ["iterations"],
    "alignment.induce_dictionary": ["gflop", "score_mb", "peak_mb", "gflops"],
    "retrieval.build_index": ["gflop", "score_mb", "peak_mb", "gflops"],
    "retrieval.batch_cosine_topk": ["gflop", "score_mb", "peak_mb"],
    "retrieval.batch_csls_topk": ["gflop", "score_mb", "peak_mb"],
    "evaluation.eval_bli": ["queries"],
    "evaluation.eval_similarity": ["queries"],
    "evaluation.eval_hypernyms": ["queries"],
}
COUNT_UNITS = {"rows": ("count", "lower"), "bytes": ("B", "lower"),
               "pairs_in": ("count", "lower"), "pairs_kept": ("count", "higher"),
               "iterations": ("count", "lower"), "gflop": ("GFLOP", "lower"),
               "score_mb": ("MiB", "lower"), "peak_mb": ("MiB", "lower"),
               "gflops": ("GFLOP/s", "higher"), "queries": ("count", "higher")}
OVERHEAD = [("trace.untraced_wall_s", "s", "lower"), ("trace.traced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "frac", "lower")]


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, fns in TRACED.items() for name, _, _ in fns]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in span_names():
        specs += [(f"{span}.s", "s", "lower"), (f"{span}.self_s", "s", "lower"),
                  (f"{span}.calls", "count", "lower")]
        specs += [(f"{span}.{c}", *COUNT_UNITS[c]) for c in COUNTS.get(span, [])]
    return specs + OVERHEAD


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    pass_id: int
    start: float
    end: float = 0.0
    peak: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while ``pass_id`` is set; calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.pass_id: int | None = None
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)
        # tracemalloc slows every Python allocation, so it runs only inside
        # the spans whose peak is reported; those never nest in meemi
        measure_peak = "peak_mb" in COUNTS.get(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.pass_id is None:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            started_tracemalloc = measure_peak and not tracemalloc.is_tracing()
            if started_tracemalloc:
                tracemalloc.start()
            span = Span(len(self.spans), name, None if parent is None else parent.id,
                        self.pass_id, time.perf_counter())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if measure_peak:
                    span.peak = tracemalloc.get_traced_memory()[1]
                if started_tracemalloc:
                    tracemalloc.stop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Bind a traced wrapper wherever meemi's modules hold a traced function."""
        wrappers = {}
        for layer, fns in TRACED.items():
            module = importlib.import_module(f"meemi.{layer}")
            for name, attr, counter in fns:
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, counter))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "meemi" and not mod_name.startswith("meemi."):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()


def _pass_metrics(spans: list[Span]) -> dict[str, float]:
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}
    for s in spans:
        duration = s.end - s.start
        for key, value in ((".s", duration), (".self_s", duration - child_time.get(s.id, 0.0)),
                           (".calls", 1)):
            out[s.name + key] = out.get(s.name + key, 0) + value
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
        if "peak_mb" in COUNTS.get(s.name, []):
            out[s.name + ".peak_mb"] = max(out.get(s.name + ".peak_mb", 0.0), s.peak / MIB)
    for name in ("alignment.induce_dictionary", "retrieval.build_index"):
        if out.get(name + ".s"):
            out[name + ".gflops"] = out[name + ".gflop"] / out[name + ".s"]
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric (0 when never called)."""
    by_pass: dict[int, list[Span]] = {}
    for s in spans:
        by_pass.setdefault(s.pass_id, []).append(s)
    per_pass = [_pass_metrics(group) for group in by_pass.values()] or [{}]
    return {
        name: statistics.median(p.get(name, 0.0) for p in per_pass)
        for name, _, _ in metric_specs() if not name.startswith("trace.")
    }
