"""End-to-end benchmark of the debugging loop, one workload per process.

    python3 perfbench/run.py --workload edit_loop --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload all --repeat 10       # medians, spreads

A single-workload run sets the workload up from ``--seed`` several times
(reporting the median set-up time), measures whole rounds of operations
for ``--seconds``, checks every output against the reference evaluator
and the workload's properties, and prints as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run (see
README.md).  ``all`` runs each workload in its own process; ``--repeat
N`` runs each workload N times on seeds ``seed..seed+N-1`` and prints
each metric's median and quartile spread next to its bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOAD_NAMES = ("cold_match", "edit_loop", "stream_ingest", "service_mix")
#: Set-ups followed by a share of the measured seconds, so one run samples
#: the machine at two moments set-up time apart.  ``setup_s`` is the
#: median over all of a run's timed set-ups (``Workload.setups``, which
#: may add unmeasured ones).
MEASURED_SETUPS = 2
#: Seconds between resident-memory samples while measuring.
RSS_INTERVAL = 0.01
#: Untraced/traced segments after each set-up of a traced run, off-on-on-
#: off so drift within the measurement cancels out of the overhead.
TRACED_SEGMENTS = [False, True, True, False]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class RssPeak:
    """Highest resident set size of this process while measuring.

    A background thread samples ``/proc/self/statm`` every
    ``RSS_INTERVAL`` seconds between :meth:`start` and :meth:`stop`, so
    set-up (rule learning) does not set the figure.  Where that file is
    missing, the process's high-water mark (``ru_maxrss``) stands in.
    """

    def __init__(self):
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = None
        try:
            self._statm = open("/proc/self/statm", "rb", buffering=0)
        except OSError:
            self._statm = None
        self._page = os.sysconf("SC_PAGE_SIZE")

    def sample(self) -> None:
        if self._statm is None:
            return
        resident = int(os.pread(self._statm.fileno(), 128, 0).split()[1])
        self.peak_bytes = max(self.peak_bytes, resident * self._page)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL):
            self.sample()

    def start(self) -> None:
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def close(self) -> None:
        if self._statm is not None:
            self._statm.close()

    def mb(self) -> float:
        if self._statm is None:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.peak_bytes / 2**20


# ---------------------------------------------------------------- one run


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from tracer import LayerTracer
    from workloads import WORKLOADS

    tracer = LayerTracer() if traced else None
    workload = WORKLOADS[name](seed, tracer)
    setup_times, samples = [], []
    rss = RssPeak()
    if tracer is not None:
        tracer.install()
    try:
        for repeat in range(workload.setups):
            if repeat:
                workload.release()
                gc.collect()
            if tracer is not None:
                tracer.start("setup", repeat)
                tracer.recording = True
            started = time.perf_counter()
            try:
                workload.setup()
            finally:
                setup_times.append(time.perf_counter() - started)
                if tracer is not None:
                    tracer.recording = False
            if repeat >= MEASURED_SETUPS:
                continue
            rss.start()
            try:
                samples += workload.measure(
                    seconds / MEASURED_SETUPS,
                    TRACED_SEGMENTS if traced else [False],
                )
            finally:
                rss.stop()
            workload.finish()
    finally:
        if tracer is not None:
            tracer.finish()
            tracer.uninstall()
        workload.release()
        rss.close()
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if traced:
        metrics = layer_metrics(workload, tracer, samples)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"trace-{name}-seed{seed}.jsonl"))
    else:
        latencies = [latency * 1000.0 for latency, _ in samples]
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "op_p50_ms": metric(statistics.median(latencies), "ms"),
            "op_tail_ms": metric(nearest_rank(latencies, 0.9), "ms"),
            "peak_rss_mb": metric(rss.mb(), "MB"),
        }
    return {
        "correct": (not workload.problems and not workload.failed
                    and bool(samples)),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }


def layer_metrics(workload, tracer, samples) -> dict:
    """Per-layer metrics of a traced run (see README.md for each one)."""
    from tracer import FAMILIES

    traced_ops = sum(1 for _, traced in samples if traced) or 1
    ops = tracer.totals("op")
    counters = workload.counters

    def per_op_ms(span: str) -> float:
        return ops[span]["self"] * 1000.0 / traced_ops if span in ops else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {
        "setup.learn_s": metric(
            tracer.median_per_unit("setup", "setup.learn", "inclusive"), "s"),
        "blocking.block_ms": metric(
            tracer.median_per_unit("setup", "blocking.block") * 1000.0, "ms"),
        "estimate.ms": metric(per_op_ms("estimate"), "ms"),
        "order.ms": metric(per_op_ms("order"), "ms"),
        "order.distinct_orders": metric(len(tracer.rule_orders), "count"),
    }
    for family in FAMILIES:
        span = ops.get(f"feature.{family}", {"rows": 0})
        out[f"feature.{family}.calls"] = metric(
            span["rows"] / traced_ops, "count")
        out[f"feature.{family}.ms"] = metric(per_op_ms(f"feature.{family}"), "ms")
    executor_rows = ops["executor"]["rows"] if "executor" in ops else 0
    explain = ops.get("session.explain", {"self": 0.0, "calls": 0})
    out.update({
        "similarity.jaro.distinct_ratio": metric(
            ratio(tracer.jaro_distinct, tracer.jaro_calls), "ratio"),
        "kernels.token_cache.hit_ratio": metric(ratio(
            counters["token_hits"],
            counters["token_hits"] + counters["token_misses"]), "ratio"),
        "kernels.value_cache.hit_ratio": metric(ratio(
            counters["value_hits"],
            counters["value_hits"] + counters["value_misses"]), "ratio"),
        "kernels.bound_skips": metric(
            counters["bound_skips"] / traced_ops, "count"),
        "match.feature_computations": metric(
            counters["feature_computations"] / traced_ops, "count"),
        "match.memo_hits": metric(counters["memo_hits"] / traced_ops, "count"),
        "memo.hit_ratio": metric(ratio(
            counters["memo_hits"],
            counters["memo_hits"] + counters["feature_computations"]), "ratio"),
        "plan.compiles_per_op": metric(
            ops["plan.compile"]["calls"] / traced_ops if "plan.compile" in ops
            else 0.0, "count"),
        "plan.compile_ms": metric(per_op_ms("plan.compile"), "ms"),
        "executor.ms": metric(per_op_ms("executor"), "ms"),
        "executor.mask_evals": metric(
            tracer.executor_counts["mask_evals"] / traced_ops, "count"),
        "executor.scalar_fallbacks": metric(
            tracer.executor_counts["scalar_fallbacks"] / traced_ops, "count"),
        "executor.rows_per_call": metric(
            ratio(executor_rows, tracer.executor_counts["calls"]), "count"),
        "incremental.self_ms": metric(per_op_ms("incremental"), "ms"),
        "incremental.affected_pairs": metric(
            counters["edit_affected"] / traced_ops, "count"),
        "evaluate.metrics_ms": metric(per_op_ms("evaluate.metrics"), "ms"),
        "session.explain_ms": metric(
            ratio(explain["self"] * 1000.0, explain["calls"]), "ms"),
        "state.nbytes_mb": metric(workload.state_bytes / 1e6, "MB"),
        "blocking.delta_ms": metric(per_op_ms("blocking.delta"), "ms"),
    })
    spans = workload.program_spans
    for span in ("apply_deltas", "remap", "invalidate", "rematch"):
        out[f"stream.{span}_ms"] = metric(
            spans[span] * 1000.0 / traced_ops, "ms")
    out["stream.affected_pairs"] = metric(
        counters["stream_affected"] / traced_ops, "count")
    out.update(service_metrics(workload.service_records))
    untraced = [latency for latency, traced in samples if not traced]
    traced_latencies = [latency for latency, traced in samples if traced]
    overhead = 0.0
    if untraced and traced_latencies:
        overhead = (statistics.median(traced_latencies)
                    / statistics.median(untraced) - 1.0) * 100.0
    out["trace.overhead_pct"] = metric(overhead, "%")
    return out


def service_metrics(records) -> dict:
    """Service-layer split of traced requests: server time from the
    envelope, transport as client latency minus server time."""
    ok = [record for record in records if record[3] is not None]
    server = [record[3] for record in ok]
    transport = [record[2] * 1000.0 - record[3] for record in ok]
    out = {
        "service.server_ms": metric(
            statistics.mean(server) if server else 0.0, "ms"),
        "service.transport_ms": metric(
            statistics.mean(transport) if transport else 0.0, "ms"),
    }
    for kind in ("matches", "stats", "explain", "edit"):
        latencies = [record[2] * 1000.0 for record in ok if record[1] == kind]
        out[f"service.{kind}.p50_ms"] = metric(
            statistics.median(latencies) if latencies else 0.0, "ms")
    out["service.busy_rejections"] = metric(
        sum(1 for record in records if record[4] == 429), "count")
    return out


# ----------------------------------------------------- all / repeat modes


def child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process; its last stdout line."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               name, "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=600)
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{name} (seed {seed}) failed with code "
                         f"{completed.returncode}")
    return json.loads(lines[-1])


def bounds() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        return {}
    return {entry["name"]: entry.get("bound") for entry in spec["end_to_end"]}


def run_all(names, seed: int, seconds: float, trace: int) -> dict:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = child(name, seed, seconds, trace)
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, entry in result["metrics"].items():
            print(f"  {key:34s} {entry['value']:14.4f} {entry['unit']}")
            summary["metrics"][f"{name}/{key}"] = entry
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    return summary


def run_repeat(names, seed: int, seconds: float, repeats: int) -> dict:
    limits = bounds()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':14s} {'metric':12s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>8s} {'bound':>6s}  failed/attempted")
    for name in names:
        runs = [child(name, seed + k, seconds, 0) for k in range(repeats)]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        for key in runs[0]["metrics"]:
            values = [run["metrics"][key]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = limits.get(key)
            print(f"{name:14s} {key:12s} {median:11.4f} {q1:11.4f} "
                  f"{q3:11.4f} {spread:8.4f} {bound if bound else '-':>6}  "
                  f"{failed}/{attempted}")
            print(f"{'':27s} runs: "
                  + " ".join(f"{value:.4g}" for value in values))
            summary["metrics"][f"{name}/{key}"] = {
                "value": median, "unit": runs[0]["metrics"][key]["unit"],
                "spread": spread,
            }
        summary["correct"] = summary["correct"] and all(
            run["correct"] for run in runs)
        summary["attempted"] += attempted
        summary["failed"] += failed
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times (untraced)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program from {ROOT}/src: {error}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"the program must come from {ROOT}/src, not {repro.__file__}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.repeat:
        result = run_repeat(names, args.seed, args.seconds, args.repeat)
    elif args.workload == "all":
        result = run_all(names, args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
