"""The four workloads: set-up, one round of operations, and checks.

Each workload is set up from the seed, then runs whole rounds of the
same operations until its time is up.  ``prepare_op`` and ``check_op``
run outside the timed region; ``run_op`` is the operation a user waits
for.  Checks append to ``problems``; a run with any problem, or with
any failed operation, reports ``correct: false``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import List, Optional

import numpy as np

import inputs
from reference import (
    direction_problems,
    f1_problems,
    label_problems,
    rule_spec,
)
from repro import DebugSession, StreamingSession
from repro.learning.workload import default_blocker
from repro.observability import Observability

HERE = os.path.dirname(os.path.abspath(__file__))


def kernel_totals(kernels) -> Counter:
    """The program's own kernel-layer counters, as one Counter."""
    if kernels is None:
        return Counter()
    return Counter({
        "token_hits": kernels.cache.total_hits,
        "token_misses": kernels.cache.total_misses,
        "value_hits": kernels.values.total_hits,
        "value_misses": kernels.values.total_misses,
        "bound_skips": kernels.total_bound_skips,
    })


def stats_counters(stats) -> Counter:
    return Counter({
        "feature_computations": stats.feature_computations,
        "memo_hits": stats.memo_hits,
    })


class Workload:
    """Base: the generic closed measurement loop over whole rounds."""

    name = ""
    round_length = 1
    #: Timed set-ups per run; the run measures after the first two.
    setups = 2

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.problems: List[str] = []
        #: program counters summed over traced operations
        self.counters: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.traced_op = False
        #: MatchState.nbytes()["total"] at the end of the run
        self.state_bytes = 0
        #: streaming spans (name -> seconds) over traced operations
        self.program_spans: Counter = Counter()
        self.service_records: List[list] = []

    # -- hooks ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what :meth:`setup` built (before the next timed set-up)."""

    def prepare_op(self, index: int) -> None:
        """Untimed preparation of operation ``index`` of the round."""

    def run_op(self, index: int) -> None:
        raise NotImplementedError

    def check_op(self, index: int, traced: bool) -> None:
        """Untimed checks and counter reads after operation ``index``."""

    def finish(self) -> None:
        """Final-state checks."""

    def learn(self):
        """Rule learning, under its own span in traced runs."""
        if self.tracer is None:
            return inputs.build_stock()
        with self.tracer.span("setup.learn"):
            return inputs.build_stock()

    # -- measurement ----------------------------------------------------

    def measure(self, seconds: float, segments: List[bool]) -> List[tuple]:
        """Run whole rounds for ``seconds`` split over ``segments`` (traced
        or not); returns ``(latency_s, traced)`` per completed operation."""
        samples: List[tuple] = []
        budget = seconds / len(segments)
        for traced in segments:
            deadline = time.perf_counter() + budget
            while True:
                for index in range(self.round_length):
                    latency = self._one(index, traced)
                    if latency is not None:
                        samples.append((latency, traced))
                if time.perf_counter() >= deadline:
                    break
        return samples

    def _one(self, index: int, traced: bool) -> Optional[float]:
        self.attempted += 1
        self.traced_op = traced
        tracer = self.tracer if traced else None
        self.prepare_op(index)
        if tracer is not None:
            tracer.start("op", self.attempted)
            tracer.recording = True
        started = time.perf_counter()
        try:
            self.run_op(index)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            latency = time.perf_counter() - started
            if tracer is not None:
                tracer.recording = False
        self.check_op(index, traced)
        return latency


class ColdMatch(Workload):
    """A fresh session from construction through ``run()`` per operation."""

    name = "cold_match"
    round_length = inputs.COLD_ROUND
    #: A third, unmeasured set-up: this set-up is the shortest, and its
    #: median over two was the least steady of the four.
    setups = 3

    def setup(self) -> None:
        stock = self.learn()
        self.dataset = stock.dataset
        self.gold = stock.gold
        self.text = inputs.stock_text(stock.function)
        self.slices = [
            stock.candidates.subset(indices)
            for indices in inputs.cold_slices(len(stock.candidates), self.seed)
        ]
        self.samples = [
            inputs.check_sample(len(part), self.seed, f"cold{j}")
            for j, part in enumerate(self.slices)
        ]

    def release(self) -> None:
        self.dataset = self.slices = self.session = None

    def prepare_op(self, index: int) -> None:
        # Fresh similarity objects and corpora: nothing one operation
        # builds can serve the next.
        self.function, _ = inputs.fresh_function(self.text, self.dataset)
        self.session = None

    def run_op(self, index: int) -> None:
        self.session = DebugSession(
            self.slices[index], self.function, gold=self.gold
        )
        self.result = self.session.run()

    def check_op(self, index: int, traced: bool) -> None:
        session, part = self.session, self.slices[index]
        what = f"cold_match op {self.attempted}"
        self.problems += label_problems(
            what, self.function, part, session.state.labels,
            self.samples[index], order_seed=self.seed + index,
        )
        self.problems += f1_problems(
            what, set(session.matched_ids()), self.gold,
            set(part.id_pairs()), session.metrics().f1,
        )
        if traced:
            self.counters += stats_counters(self.result.stats)
            self.counters += kernel_totals(session.kernels)
        self.state_bytes = session.memory_report()["total"]
        self.session = None


class EditLoop(Workload):
    """``apply(change)`` then ``metrics()`` on a warm 2,500-pair session."""

    name = "edit_loop"
    round_length = 2 * inputs.EDIT_PAIRS

    def setup(self) -> None:
        stock = self.learn()
        self.function = stock.function
        self.gold = stock.gold
        self.candidates = stock.candidates.subset(
            inputs.slice_indices(len(stock.candidates), 0)
        )
        self.universe = set(self.candidates.id_pairs())
        self.session = DebugSession(self.candidates, stock.function, gold=self.gold)
        self.session.run()
        self.script = inputs.edit_script(stock.function, self.seed)
        # One pass of the script fills the memo with every feature value
        # it touches: the timed loop measures warm edits.
        for change, _ in self.script:
            self.session.apply(change)
        self.kernels_seen = kernel_totals(self.session.kernels)

    def release(self) -> None:
        self.session = self.candidates = None

    def prepare_op(self, index: int) -> None:
        self.before = self.session.state.labels.copy()

    def run_op(self, index: int) -> None:
        self.result = self.session.apply(self.script[index][0])
        self.confusion = self.session.metrics()

    def check_op(self, index: int, traced: bool) -> None:
        change, direction = self.script[index]
        what = f"edit_loop op {self.attempted} ({change.describe()})"
        labels = self.session.state.labels
        self.problems += direction_problems(what, self.before, labels, direction)
        matched = {self.candidates[int(i)].pair_id for i in np.flatnonzero(labels)}
        self.problems += f1_problems(
            what, matched, self.gold, self.universe, self.confusion.f1
        )
        now = kernel_totals(self.session.kernels)
        if traced:
            self.counters += stats_counters(self.result.stats)
            self.counters["edit_affected"] += self.result.affected_pairs
            self.counters += now - self.kernels_seen
        self.kernels_seen = now

    def finish(self) -> None:
        session = self.session
        if rule_spec(session.function) != rule_spec(self.function):
            self.problems.append(
                "edit_loop: after whole rounds of undo pairs the function "
                "differs from the stock function"
            )
        self.problems += label_problems(
            "edit_loop final state", self.function, self.candidates,
            session.state.labels,
            inputs.check_sample(len(self.candidates), self.seed, "edit-final"),
            order_seed=self.seed,
        )
        self.state_bytes = session.memory_report()["total"]


class StreamIngest(Workload):
    """``StreamingSession.ingest`` of a seeded four-delta batch."""

    name = "stream_ingest"
    round_length = inputs.STREAM_BATCHES

    def setup(self) -> None:
        stock = self.learn()
        tables = inputs.small_tables(inputs.STREAM_SCALE)
        self.function, _ = inputs.fresh_function(
            inputs.stock_text(stock.function), tables
        )
        self.tables = tables
        self.stream = StreamingSession(
            tables.table_a, tables.table_b, default_blocker("products"),
            self.function, gold=tables.gold,
        )
        self.stream.run()
        priming, self.batches = inputs.stream_batches(
            tables.table_a, tables.table_b, self.stream.candidates.id_pairs(),
            self.seed,
        )
        self.stream.ingest(priming)
        self.kernels_seen = kernel_totals(self.stream.session.kernels)

    def release(self) -> None:
        self.stream = self.tables = None

    def prepare_op(self, index: int) -> None:
        # The program's own streaming spans, only while tracing.
        self.observability = Observability() if self.traced_op else None
        self.stream.session.observability = self.observability

    def run_op(self, index: int) -> None:
        self.result = self.stream.ingest(self.batches[index])

    def check_op(self, index: int, traced: bool) -> None:
        self.stream.session.observability = None
        now = kernel_totals(self.stream.session.kernels)
        if traced:
            self.counters += stats_counters(self.result.stats)
            self.counters["stream_affected"] += self.result.affected
            self.counters += now - self.kernels_seen
            for record in self.observability.tracer.log:
                self.program_spans[record.name] += record.duration
        self.kernels_seen = now

    def finish(self) -> None:
        stream = self.stream
        fresh = default_blocker("products").block(
            stream.table_a, stream.table_b
        )
        if set(fresh.id_pairs()) != set(stream.candidates.id_pairs()):
            self.problems.append(
                "stream_ingest: the streaming candidate set differs from a "
                "fresh block() of the final tables"
            )
        candidates = stream.candidates
        self.problems += label_problems(
            "stream_ingest final state", self.function, candidates,
            stream.state.labels,
            inputs.check_sample(len(candidates), self.seed, "stream-final"),
            order_seed=self.seed,
        )
        self.problems += f1_problems(
            "stream_ingest final state", set(stream.session.matched_ids()),
            self.tables.gold, set(candidates.id_pairs()), stream.metrics().f1,
        )
        self.state_bytes = stream.session.memory_report()["total"]


class ServiceMix(Workload):
    """Closed loop: one load-generating process, two connections, against
    the program's HTTP service hosting two sessions."""

    name = "service_mix"
    sessions = ("s0", "s1")

    def setup(self) -> None:
        from repro.service import ServiceClient, ServiceThread
        from repro.service.protocol import default_blocker_spec

        stock = self.learn()
        text = inputs.stock_text(stock.function)
        tables = inputs.small_tables(inputs.SERVICE_SCALE)
        self.function, space = inputs.fresh_function(text, tables)
        self.tables = tables
        self.thread = ServiceThread(resolver=space.resolver())
        host, self.port = self.thread.start()
        client = ServiceClient(host, self.port)
        for name in self.sessions:
            client.create_session({
                "name": name,
                "table_a": inputs.table_payload(tables.table_a),
                "table_b": inputs.table_payload(tables.table_b),
                "rules": text,
                "blocker": default_blocker_spec("products"),
                "gold": [list(pair) for pair in sorted(tables.gold)],
            })
        self.candidates = default_blocker("products").block(
            tables.table_a, tables.table_b
        )
        pairs = self.candidates.id_pairs()
        self.requests = [
            inputs.service_requests(self.function, name, pairs, self.seed, conn)
            for conn, name in enumerate(self.sessions)
        ]
        # One round per connection warms the memo for every request.
        warmup = self._load(0.0)
        if any(record[4] != 200 for record in warmup):
            raise RuntimeError("service_mix warm-up round had failed requests")

    def release(self) -> None:
        if getattr(self, "thread", None) is not None:
            self.thread.stop()
        self.thread = None

    def _kernels(self) -> Counter:
        registry = self.thread.service.registry
        total = Counter()
        for name in self.sessions:
            total += kernel_totals(registry.get(name).streaming.session.kernels)
        return total

    def measure(self, seconds, segments):
        samples = []
        budget = seconds / len(segments)
        for traced in segments:
            before = self._kernels()
            if traced:
                self.tracer.start("op", len(samples))
                self.tracer.recording = True
            try:
                records = self._load(budget)
            finally:
                if self.tracer is not None:
                    self.tracer.recording = False
            for record in records:
                self.attempted += 1
                conn, kind, latency, server_ms, status, stats = record
                if status != 200:
                    self.failed += 1
                    continue
                samples.append((latency, traced))
                if traced:
                    self.service_records.append(record)
                    if stats:
                        self.counters += Counter(stats)
            if traced:
                self.counters += self._kernels() - before
        return samples

    def _load(self, seconds: float) -> List[list]:
        """One load-generator process for ``seconds`` of whole rounds."""
        command = [sys.executable, os.path.join(HERE, "loadgen.py"),
                   "--port", str(self.port), "--seconds", repr(seconds)]
        completed = subprocess.run(
            command, input=json.dumps(self.requests), capture_output=True,
            text=True, timeout=seconds + 120,
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise RuntimeError(
                f"load generator exited with code {completed.returncode}"
            )
        return json.loads(completed.stdout)["records"]

    def finish(self) -> None:
        from repro.service import ServiceClient

        client = ServiceClient("127.0.0.1", self.port)
        registry = self.thread.service.registry
        expected = rule_spec(self.function)
        index = {pair: i for i, pair in enumerate(self.candidates.id_pairs())}
        self.state_bytes = 0
        for name in self.sessions:
            what = f"service_mix session {name}"
            streaming = registry.get(name).streaming
            if rule_spec(streaming.function) != expected:
                self.problems.append(
                    f"{what}: after whole rounds of undo pairs the function "
                    f"differs from the stock function"
                )
            result = client.matches(name)
            matched = {tuple(pair) for pair in result["matches"]}
            unknown = matched.difference(index)
            if unknown:
                self.problems.append(
                    f"{what}: {len(unknown)} matched pairs are not candidates"
                )
                continue
            labels = np.zeros(len(self.candidates), dtype=bool)
            labels[[index[pair] for pair in matched]] = True
            self.problems += label_problems(
                what, self.function, self.candidates, labels,
                inputs.check_sample(len(labels), self.seed, f"service-{name}"),
                order_seed=self.seed,
            )
            self.problems += f1_problems(
                what, matched, self.tables.gold, set(index),
                result["confusion"]["f1"],
            )
            self.state_bytes += streaming.session.memory_report()["total"]


WORKLOADS = {
    cls.name: cls for cls in (ColdMatch, EditLoop, StreamIngest, ServiceMix)
}
