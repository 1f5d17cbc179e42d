"""Traced-run mode: spans around calls into each layer's public functions.

Wrappers are installed from the benchmark's side by rebinding the names
the program looks up (module functions where they are imported, methods
on their classes) and restored afterwards, so untraced runs execute the
program untouched.  Each span records its inclusive time and its self
time (inclusive minus the time of instrumented calls nested inside it,
per thread), so the layer times of one operation add up instead of
overlapping.  Spans stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Similarity families reported per feature, keyed by the similarity's
#: registry name (prefix match for tokenizer-suffixed names).
FAMILIES = (
    "token_set", "edit_distance", "jaro", "monge_elkan", "tfidf",
    "soft_tfidf", "exact", "numeric", "phonetic",
)
_FAMILY_PREFIXES = (
    ("soft_tfidf", "soft_tfidf"),
    ("tfidf", "tfidf"),
    ("monge_elkan", "monge_elkan"),
    ("jaro", "jaro"),
    ("levenshtein", "edit_distance"),
    ("damerau", "edit_distance"),
    ("soundex", "phonetic"),
    ("exact_match", "exact"),
    ("norm_exact", "exact"),
    ("prefix", "exact"),
    ("suffix", "exact"),
    ("numeric", "numeric"),
    ("rel_diff", "numeric"),
    ("abs_diff", "numeric"),
)


def family_of(feature) -> str:
    name = feature.sim.name
    for prefix, family in _FAMILY_PREFIXES:
        if name.startswith(prefix):
            return family
    return "token_set"


class LayerTracer:
    """Collects layer spans while :attr:`recording` is true."""

    def __init__(self):
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._epoch = time.perf_counter()
        self.recording = False
        #: "setup" or "op"; with :attr:`unit`, the setup or op a span
        #: belongs to.
        self.phase = "setup"
        self.unit = 0
        #: (name, phase, unit, thread, start, inclusive, self, rows)
        self.spans: List[tuple] = []
        #: counts taken in the op phase only
        self.executor_counts: Counter = Counter()
        self.rule_orders: set = set()
        self.jaro_calls = 0
        #: distinct Jaro string pairs, summed per operation
        self.jaro_distinct = 0
        self._jaro_pairs: set = set()

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, kind: Optional[str]) -> list:
        frame = [0.0, kind]
        self._stack().append(frame)
        return frame

    def _leave(self, frame: list, name: str, start: float, rows: int) -> None:
        inclusive = time.perf_counter() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += inclusive
        self.spans.append((
            name, self.phase, self.unit, threading.get_ident(),
            start - self._epoch, inclusive, inclusive - frame[0], rows,
        ))

    def _outer(self, kind: str) -> bool:
        """True when no frame of ``kind`` is open on this thread."""
        return not any(frame[1] == kind for frame in self._stack())

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. rule learning)."""
        if not self.recording:
            yield
            return
        frame = self._enter(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, name, start, 0)

    # --------------------------------------------------------- wrappers

    def _timed(self, name, fn, kind=None, rows_of=None, snapshot=None,
               note=None):
        """Wrap ``fn`` in a span.  ``name`` may be a function of the call's
        arguments.  For the outermost call of a ``kind`` on a thread,
        ``rows_of`` counts the rows it covers and ``note`` receives the
        arguments, ``snapshot(args)`` taken before the call, and the
        result."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            outer = kind is None or tracer._outer(kind)
            label = name(args) if callable(name) else name
            rows = rows_of(args, kwargs) if (rows_of and outer) else 0
            before = snapshot(args) if (snapshot and outer) else None
            frame = tracer._enter(kind)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, label, start, rows)
            if note and outer:
                note(args, before, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def install(self) -> None:
        """Wrap every traced entry point (idempotent)."""
        if self._patches:
            return
        import repro.core.incremental as core_incremental
        import repro.core.ordering as ordering
        import repro.core.session as core_session
        import repro.engine as engine
        import repro.engine.executor as engine_executor
        import repro.engine.incremental as engine_incremental
        import repro.engine.plan as engine_plan
        import repro.similarity.jaro as jaro
        from repro import ColumnarExecutor, CostEstimator, DebugSession, Feature
        from repro.blocking.base import Blocker
        from repro.kernels import FeatureKernels

        timed = self._timed
        for module in (engine, engine_plan, engine_executor, engine_incremental):
            self._patch(module, "plan_function",
                        lambda fn: timed("plan.compile", fn))
        self._patch(CostEstimator, "estimate", lambda fn: timed("estimate", fn))
        for module in (core_session, ordering):
            self._patch(module, "order_function", lambda fn: timed(
                "order", fn, note=self._note_order))
        self._patch(Blocker, "block", lambda fn: timed("blocking.block", fn))
        self._patch(Blocker, "pairs_for_delta",
                    lambda fn: timed("blocking.delta", fn))
        for module in (core_session, core_incremental):
            self._patch(module, "apply_change",
                        lambda fn: timed("incremental", fn))
        for module in (engine, engine_incremental):
            self._patch(module, "apply_change_columnar",
                        lambda fn: timed("incremental", fn))
        self._patch(DebugSession, "metrics",
                    lambda fn: timed("evaluate.metrics", fn))
        self._patch(DebugSession, "explain",
                    lambda fn: timed("session.explain", fn))
        for method, row_arg in (("match_rows", 1), ("predicate_rows", 3)):
            self._patch(ColumnarExecutor, method, lambda fn, row_arg=row_arg: timed(
                "executor", fn, kind="executor",
                rows_of=lambda args, kwargs: len(
                    args[row_arg] if len(args) > row_arg else kwargs["rows"]),
                snapshot=self._executor_counts, note=self._note_executor))
        feature_rows = {
            "compute": lambda args, kwargs: 1,
            "compute_column": lambda args, kwargs: len(args[2]),
            "compute_rows": lambda args, kwargs: len(args[3]),
        }
        for method, rows_of in feature_rows.items():
            self._patch(FeatureKernels, method, lambda fn, rows_of=rows_of: timed(
                lambda args: "feature." + family_of(args[1]), fn,
                kind="feature", rows_of=rows_of))
        self._patch(Feature, "compute", lambda fn: timed(
            lambda args: "feature." + family_of(args[0]), fn,
            kind="feature", rows_of=lambda args, kwargs: 1))
        self._patch(jaro, "jaro_similarity", self._counted_jaro)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start(self, phase: str, unit: int) -> None:
        """Attribute what follows to ``unit`` of ``phase`` ("setup" or
        "op")."""
        self.jaro_distinct += len(self._jaro_pairs)
        self._jaro_pairs.clear()
        self.phase, self.unit = phase, unit

    def finish(self) -> None:
        """Close the last unit (folds its distinct Jaro pairs)."""
        self.start(self.phase, self.unit)

    # ------------------------------------------------------------- hooks

    def _note_order(self, args, before, result) -> None:
        if self.phase == "op":
            self.rule_orders.add(
                tuple(rule.name for rule in result.rules))

    @staticmethod
    def _executor_counts(args) -> tuple:
        return (args[0].mask_evals, args[0].scalar_fallbacks)

    def _note_executor(self, args, before, result) -> None:
        if self.phase != "op":
            return
        now = self._executor_counts(args)
        self.executor_counts["calls"] += 1
        self.executor_counts["mask_evals"] += now[0] - before[0]
        self.executor_counts["scalar_fallbacks"] += now[1] - before[1]

    def _counted_jaro(self, fn):
        tracer = self

        def counted(x, y):
            if tracer.recording and tracer.phase == "op":
                tracer.jaro_calls += 1
                tracer._jaro_pairs.add((x, y))
            return fn(x, y)

        counted.__wrapped__ = fn
        return counted

    # ---------------------------------------------------------- reading

    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self seconds, calls, rows (one phase)."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self": 0.0, "inclusive": 0.0, "calls": 0, "rows": 0})
        for name, span_phase, _, _, _, inclusive, self_time, rows in self.spans:
            if span_phase != phase:
                continue
            entry = out[name]
            entry["self"] += self_time
            entry["inclusive"] += inclusive
            entry["calls"] += 1
            entry["rows"] += rows
        return out

    def per_unit(self, phase: str, name: str, field: str = "self") -> List[float]:
        """One value per setup/op unit: the summed field of ``name``."""
        sums: Dict[int, float] = defaultdict(float)
        for span_name, span_phase, unit, _, _, inclusive, self_time, _ in self.spans:
            if span_phase == phase and span_name == name:
                sums[unit] += inclusive if field == "inclusive" else self_time
        return [sums[unit] for unit in sorted(sums)]

    def median_per_unit(self, phase: str, name: str, field: str = "self") -> float:
        values = self.per_unit(phase, name, field)
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "phase", "unit", "thread", "start_s", "inclusive_s",
                "self_s", "rows")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
