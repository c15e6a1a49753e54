"""Spans and counters around thermoshift's layers, from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` wherever it is bound:
in its own module, in every thermoshift module that imported it by name, and
in the package namespace; methods are wrapped on their class.  Nothing under
``src/`` changes, and ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, job]``.  Spans are recorded only while
a job is open (``job_begin``/``job_end``), so set-up and checks stay out of
the trace.  They are kept in memory and written out by ``write``.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

# layer -> public callables; "Class.method" wraps the method on its class
TARGETS = {
    "shiftspace": ("admissible_words", "CylinderFunction.refine",
                   "CylinderMeasure.coarsen", "alpha_power", "birkhoff", "integrate"),
    "wordcodes": ("admissible_codes", "suffix_map", "window_codes", "gather"),
    "transfer": ("apply", "TransferOperator.matrix", "rpf_solve", "cond_expectation"),
    "kms": ("kms_iterate", "projection_steps", "gibbs_state", "kms_check"),
    "monomial": ("multiply", "gauge", "represent", "state_eval"),
    "ergopt": ("m_value", "subaction", "conditional_minima", "ground_support_test"),
    "renewal": ("RenewalModel.__init__", "pressure_at", "pressure_curve",
                "phase_transition_report", "tower_pressure_oracle"),
    "verify": ("verify_all",),
    "cli": ("main",),
}

# tracemalloc peaks are taken around these, in memory passes only
MEMORY_TARGETS = (("kms", "kms_iterate"), ("transfer", "rpf_solve"))

COUNTERS = ("shiftspace.tables_built", "shiftspace.words_built",
            "wordcodes.admissible_codes.distinct", "wordcodes.max_words",
            "transfer.rpf_solve.iterations", "transfer.rpf_solve.dense_mb",
            "kms.steps_swept", "kms.steps_kept", "kms.step_yield",
            "ergopt.graph_edges")
PEAKS = ("kms.kms_iterate.peak_mb", "transfer.rpf_solve.peak_mb")


def span_name(layer: str, target: str) -> str:
    """Metric stem: ``transfer.matrix``, ``renewal.RenewalModel``."""
    cls, _, attr = target.rpartition(".")
    return f"{layer}.{cls if attr == '__init__' else attr}"


def span_names() -> list[str]:
    return [span_name(layer, t) for layer, targets in TARGETS.items() for t in targets]


def _resolve(layer: str, target: str):
    """(owner object, attribute name) of the original definition."""
    module = importlib.import_module(f"thermoshift.{layer}")
    cls, _, attr = target.rpartition(".")
    return (getattr(module, cls) if cls else module), attr


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace_everywhere(self, owner, attr, make):
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            self.set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "thermoshift" or name.startswith("thermoshift."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.set(module, key, wrapper)

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Span recorder (mode "spans") or per-call tracemalloc peaks ("memory")."""

    def __init__(self, mode: str):
        self.mode = mode
        self.spans: list[list] = []
        self.jobs: list[int] = []  # span index of each job
        self._stack: list[int] = []
        self._job = None
        self._in_kms = 0
        self._code_keys: set = set()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.peaks = dict.fromkeys(PEAKS, 0.0)
        self._patches = _Patches()

    # -- installation ---------------------------------------------------------
    def install(self):
        if self.mode == "memory":
            for layer, target in MEMORY_TARGETS:
                owner, attr = _resolve(layer, target)
                key = f"{layer}.{target}.peak_mb"
                self._patches.replace_everywhere(
                    owner, attr, lambda fn, key=key: self._memory_wrapper(fn, key))
            return
        for layer, targets in TARGETS.items():
            for target in targets:
                owner, attr = _resolve(layer, target)
                name = span_name(layer, target)
                hook = getattr(self, "_after_" + name.replace(".", "_"), None)
                self._patches.replace_everywhere(
                    owner, attr, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
        shiftspace = sys.modules["thermoshift.shiftspace"]
        ergopt = sys.modules["thermoshift.ergopt"]
        self._patches.set(shiftspace, "_words_and_index",
                          self._table_counter(shiftspace._words_and_index))
        self._patches.set(ergopt, "_word_graph", self._edge_counter(ergopt._word_graph))

    def uninstall(self):
        self._patches.undo()

    # -- jobs -------------------------------------------------------------------
    def job_begin(self, job_id: int, kind: str):
        self._job = job_id
        self.jobs.append(self._open("job." + kind))

    def job_end(self):
        self._close(self._stack[-1])
        self._job = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------------
    def _span_wrapper(self, fn, name, hook):
        is_kms = name == "kms.kms_iterate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            self._in_kms += is_kms
            try:
                result = fn(*args, **kwargs)
            finally:
                self._in_kms -= is_kms
                self._close(idx)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _memory_wrapper(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                self.peaks[key] = max(self.peaks[key], peak)

        return wrapper

    def _table_counter(self, cached):
        @functools.wraps(cached)
        def wrapper(model, d):
            before = cached.cache_info().misses
            result = cached(model, d)
            if self._job is not None and cached.cache_info().misses > before:
                self.counts["shiftspace.tables_built"] += 1
                self.counts["shiftspace.words_built"] += len(result[0])
            return result

        return wrapper

    def _edge_counter(self, word_graph):
        @functools.wraps(word_graph)
        def wrapper(*args, **kwargs):
            nodes, edges = word_graph(*args, **kwargs)
            if self._job is not None:
                self.counts["ergopt.graph_edges"] += len(edges)
            return nodes, edges

        return wrapper

    # -- counters read off results (hook name: _after_<layer>_<fn>) -------------
    def _after_wordcodes_admissible_codes(self, args, codes):
        self._code_keys.add((args[0], args[1]))
        self.counts["wordcodes.admissible_codes.distinct"] = len(self._code_keys)
        self.counts["wordcodes.max_words"] = max(self.counts["wordcodes.max_words"],
                                                 len(codes))

    def _after_wordcodes_suffix_map(self, args, result):
        if self._in_kms:
            self.counts["kms.steps_swept"] += 1

    def _after_kms_kms_iterate(self, args, result):
        self.counts["kms.steps_kept"] += result.iterations

    def _after_transfer_rpf_solve(self, args, sol):
        n = len(sol.eigenfunction.values)
        self.counts["transfer.rpf_solve.iterations"] += sol.iterations
        self.counts["transfer.rpf_solve.dense_mb"] = max(
            self.counts["transfer.rpf_solve.dense_mb"], n * n * 8 / 1e6)

    # -- summaries --------------------------------------------------------------
    def self_times(self, job=None) -> dict:
        """name -> [calls, self seconds] over the wrapped functions' spans,
        of one job or of all."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, job_id) in enumerate(self.spans):
            if not name.startswith("job.") and job in (None, job_id):
                entry = out.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += end - start - child[i]
        return out

    def layer_metrics(self) -> dict:
        """calls and self time per wrapped function, plus the counters."""
        times = self.self_times()
        out = {}
        for stem in span_names():
            calls, self_s = times.get(stem, (0, 0.0))
            out[f"{stem}.calls"] = calls
            out[f"{stem}.self_s"] = self_s
        counts = dict(self.counts)
        swept = counts["kms.steps_swept"]
        counts["kms.step_yield"] = counts["kms.steps_kept"] / swept if swept else 0.0
        out.update(counts)
        return out

    def job_coverage(self) -> list[float]:
        """Share of each job's traced time that its top-level spans cover."""
        covered = dict.fromkeys(self.jobs, 0.0)
        for name, start, end, parent, _ in self.spans:
            if parent in covered:
                covered[parent] += end - start
        out = []
        for idx in self.jobs:
            _, start, end, _, _ = self.spans[idx]
            out.append(covered[idx] / (end - start) if end > start else 1.0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
