"""Passes, metrics and the report of the benchmark (see ``run.py``)."""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback
from collections import Counter

from hostclock import BRACKET_UNITS, HostProbe
from tracing import Tracer, read_spans, summarize, write_spans
from workloads import Ops, Outcome, PassFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (name, unit, better) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("objects_per_s", "objects/s", "higher"),
    ("batch_p50_ms", "ms", "lower"),
    ("batch_p95_ms", "ms", "lower"),
    ("answers_per_object", "answers/object", "lower"),
    ("accuracy", "fraction", "higher"),
    ("db_bytes_per_object", "bytes/object", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Printed with the others; the result line carries it as failed/attempted,
#: because a metric there may never be 0.
ERROR_RATE = ("error_rate", "failed/attempted", "lower")

TRANSPORT_OPS = (
    "create_tasks", "simulate_work", "get_task_runs_page",
    "list_project_task_ids", "extend_tasks_redundancy",
)
STORE_CALLS = (
    "add_tasks", "stage_tasks", "claim_dedup_keys", "append_runs", "flush_appends",
    "runs_for_tasks", "runs_for_task", "task_id_page", "get_tasks",
)
ENGINE_CALLS = ("put", "put_new", "put_many", "get", "get_many", "scan_keys", "count", "create_table")

#: (name, unit, better) of the per-layer metrics, reported with --trace 1.
PER_LAYER = (
    *[(f"core.{verb}_s", "s", "lower") for verb in ("extend", "publish_task", "get_result", "get_result_adaptive", "aggregate")],
    ("core.self_s", "s", "lower"),
    ("core.cache_hits", "count", "higher"),
    ("core.batch_growth", "ratio", "lower"),
    ("transport.round_trips", "count", "lower"),
    ("transport.retries", "count", "lower"),
    ("transport.s", "s", "lower"),
    ("transport.self_s", "s", "lower"),
    *[(f"transport.calls.{op}", "count", "lower") for op in TRANSPORT_OPS],
    ("collect.runs_transferred", "count", "lower"),
    ("collect.useful_ratio", "ratio", "higher"),
    ("wire.round_trips", "count", "lower"),
    ("wire.s", "s", "lower"),
    ("wire.self_s", "s", "lower"),
    ("wire.ms_per_round_trip", "ms", "lower"),
    ("wire.bytes_sent", "bytes", "lower"),
    ("wire.bytes_received", "bytes", "lower"),
    ("server.s", "s", "lower"),
    ("server.self_s", "s", "lower"),
    ("server.create_tasks_s", "s", "lower"),
    ("server.simulate_work_s", "s", "lower"),
    ("server.page_s", "s", "lower"),
    ("store.s", "s", "lower"),
    ("store.self_s", "s", "lower"),
    *[(f"store.calls.{method}", "count", "lower") for method in STORE_CALLS],
    ("codec.encode_calls", "count", "lower"),
    ("codec.encoded_bytes", "bytes", "lower"),
    ("codec.decode_calls", "count", "lower"),
    ("codec.decoded_bytes", "bytes", "lower"),
    ("codec.s", "s", "lower"),
    ("engine.s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    *[(f"engine.calls.{method}", "count", "lower") for method in ENGINE_CALLS],
    ("engine.records_written", "count", "lower"),
    ("engine.records_read", "count", "lower"),
    ("engine.commits", "count", "lower"),
    ("quality.s", "s", "lower"),
    ("quality.updates", "count", "lower"),
    ("quality.rounds", "count", "lower"),
    ("quality.early_stopped", "count", "higher"),
    ("workers.answers", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_objects_per_s", "objects/s", "higher"),
    ("trace.traced_objects_per_s", "objects/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)
#: Per-layer counts two traced passes with one seed must reproduce exactly.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))

#: Set-up is timed at least this many times per run, and for at least
#: SETUP_MIN_S in total (cheap set-ups are repeated until then).
SETUP_REPS = 10
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 2000


def percentile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation percentile, as ``statistics.quantiles``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def growth(batches: list[float]) -> float:
    """Mean latency of the last tenth of batches over that of the first tenth."""
    tenth = max(1, len(batches) // 10)
    return statistics.fmean(batches[-tenth:]) / statistics.fmean(batches[:tenth])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- passes ----------------------------------------------------------------------


def run_pass(workload, tracer=None):
    """Set up, run and check one pass; return its Outcome and Ops."""
    ops = Ops(tracer)
    probe = ops.probe
    outcome = Outcome()
    probe.sample(BRACKET_UNITS)
    start = time.perf_counter()
    stack = workload.open(tracer)
    outcome.setup_s = time.perf_counter() - start
    probe.sample(BRACKET_UNITS)
    try:
        if tracer:
            # The trace covers the program only, like objects_per_s.
            tracer.truncate(0)
            tracer.counts.clear()
        outcome.program_start = time.perf_counter()
        began = probe.now()
        data = workload.run(stack, ops, outcome)
        outcome.program_s = probe.now() - began
        outcome.program_end = time.perf_counter()
        probe.sample(BRACKET_UNITS)
        outcome.scale = probe.scale()
        # Checks make calls of their own; keep them out of the trace.
        mark = len(tracer.start) if tracer else 0
        counts = Counter(tracer.counts) if tracer else None
        workload.check(stack, data, ops, outcome)
        if tracer:
            tracer.truncate(mark)
            tracer.counts = counts
    except PassFailed:
        pass
    except Exception:  # noqa: BLE001 - a failed check fails the pass, not the run
        ops.attempted += 1
        ops.failed += 1
        ops.failures.append(traceback.format_exc())
    finally:
        stack.close()
    workload.after_close(stack, outcome)
    if tracer and stack.spans_path:
        tracer.absorb(read_spans(stack.spans_path)[0], outcome.program_start, outcome.program_end)
    return outcome, ops


def measure(workload, seconds: float):
    """Passes with tracing off for *seconds*; the end-to-end metrics."""
    outcomes, attempted, failed, failures = [], 0, 0, []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        workload.select(len(outcomes))
        outcome, ops = run_pass(workload)
        attempted += ops.attempted
        failed += ops.failed
        failures += ops.failures
        if ops.failed:
            break
        outcomes.append(outcome)
        # Stop before a pass that would overrun the measuring time.
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    if not outcomes:
        return {name: 0.0 for name, _, _ in END_TO_END}, attempted, failed, failures, {}
    # Extra set-ups, in a block with probes of its own.
    probe = HostProbe()
    probe.sample(BRACKET_UNITS)
    extra = []
    while len(outcomes) + len(extra) < SETUP_REPS or (
        sum(o.setup_s for o in outcomes) + sum(extra) < SETUP_MIN_S
        and len(outcomes) + len(extra) < SETUP_MAX_REPS
    ):
        start = time.perf_counter()
        stack = workload.open(None)
        extra.append(time.perf_counter() - start)
        stack.close()
        workload.after_close(stack, Outcome())
        probe.sample()
    probe.sample(BRACKET_UNITS)
    # Timings at the nominal host speed, each by the probes of its own pass.
    setups = [o.setup_s * o.scale for o in outcomes] + [t * probe.scale() for t in extra]
    batches = [latency * o.scale for o in outcomes for latency in o.batches]
    wall_batches = [latency for o in outcomes for latency in o.batches]
    # Crowd cost, accuracy and size come from the first pass, whose inputs
    # depend on the seed alone, so they stay exact however many passes fit.
    first = outcomes[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "objects_per_s": statistics.median(o.objects / (o.program_s * o.scale) for o in outcomes),
        "batch_p50_ms": percentile(batches, 0.50) * 1000,
        "batch_p95_ms": percentile(batches, 0.95) * 1000,
        "answers_per_object": first.answers / first.objects,
        "accuracy": first.accuracy,
        "db_bytes_per_object": first.db_bytes / first.objects,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "passes": len(outcomes),
        "batch samples": len(batches),
        "set-up samples": len(setups),
        "host speed (nominal / mean probe time), median over passes": round(
            statistics.median(o.scale for o in outcomes), 4
        ),
        "wall-clock setup_s, objects_per_s, batch_p50_ms, batch_p95_ms": (
            f"{statistics.median([o.setup_s for o in outcomes] + extra):.6g} s, "
            f"{statistics.median(o.objects / o.program_s for o in outcomes):.6g} objects/s, "
            f"{percentile(wall_batches, 0.50) * 1000:.6g} ms, {percentile(wall_batches, 0.95) * 1000:.6g} ms"
        ),
        "objects in the first pass": first.objects,
        "answers in the first pass": first.answers,
    }
    return metrics, attempted, failed, failures, info


def layer_metrics(tracer, outcome, untraced) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    s = summarize(tracer)
    counts = tracer.counts

    def total(prefix: str) -> float:
        return sum(value for key, value in s.items() if key.startswith(prefix))

    transferred = counts["collect.runs_transferred"]
    wire_trips = total("wire.calls.")
    m = {f"core.{verb}_s": s.get(f"span:core.{verb}", 0.0) for verb in ("extend", "publish_task", "get_result", "get_result_adaptive", "aggregate")}
    m.update({
        "core.self_s": s.get("core.self_s", 0.0),
        "core.cache_hits": outcome.cache_hits,
        "core.batch_growth": growth(untraced.batches),
        "transport.round_trips": total("transport.calls."),
        "transport.retries": counts["transport.retries"],
        "transport.s": s.get("transport.s", 0.0),
        "transport.self_s": s.get("transport.self_s", 0.0),
        "collect.runs_transferred": transferred,
        "collect.useful_ratio": counts["collect.runs_useful"] / transferred if transferred else 0.0,
        "wire.round_trips": wire_trips,
        "wire.s": s.get("wire.s", 0.0),
        "wire.self_s": s.get("wire.self_s", 0.0),
        "wire.ms_per_round_trip": 1000 * s.get("wire.s", 0.0) / wire_trips if wire_trips else 0.0,
        "wire.bytes_sent": counts["wire.bytes_sent"],
        "wire.bytes_received": counts["wire.bytes_received"],
        "server.s": s.get("server.s", 0.0),
        "server.self_s": s.get("server.self_s", 0.0),
        "server.create_tasks_s": s.get("span:server.create_tasks", 0.0),
        "server.simulate_work_s": s.get("span:server.simulate_work", 0.0),
        "server.page_s": s.get("span:server.get_task_runs_page", 0.0),
        "store.s": s.get("store.s", 0.0),
        "store.self_s": s.get("store.self_s", 0.0),
        "codec.encode_calls": counts["codec.encode_calls"],
        "codec.encoded_bytes": counts["codec.encoded_bytes"],
        "codec.decode_calls": counts["codec.decode_calls"],
        "codec.decoded_bytes": counts["codec.decoded_bytes"],
        "codec.s": s.get("codec.s", 0.0),
        "engine.s": s.get("engine.s", 0.0),
        "engine.self_s": s.get("engine.self_s", 0.0),
        "engine.records_written": counts["engine.records_written"],
        "engine.records_read": counts["engine.records_read"],
        "engine.commits": counts["engine.commits"],
        "quality.s": s.get("quality.s", 0.0),
        "quality.updates": counts["quality.updates"],
        "quality.rounds": outcome.quality_rounds,
        "quality.early_stopped": outcome.early_stopped,
        "workers.answers": counts["workers.answers"],
        "trace.spans": len(tracer.start),
        "trace.untraced_objects_per_s": untraced.objects / (untraced.program_s * untraced.scale),
        "trace.traced_objects_per_s": outcome.objects / (outcome.program_s * outcome.scale),
    })
    m["trace.overhead"] = m["trace.untraced_objects_per_s"] / m["trace.traced_objects_per_s"]
    for op in TRANSPORT_OPS:
        m[f"transport.calls.{op}"] = s.get(f"transport.calls.{op}", 0)
    for method in STORE_CALLS:
        m[f"store.calls.{method}"] = s.get(f"store.calls.{method}", 0)
    for method in ENGINE_CALLS:
        m[f"engine.calls.{method}"] = s.get(f"engine.calls.{method}", 0)
    return m


def trace(workload, seed: int, traces_dir: str):
    """One untraced and two traced passes; the per-layer metrics."""
    workload.select(0)
    untraced, ops = run_pass(workload)
    attempted, failed, failures = ops.attempted, ops.failed, list(ops.failures)
    tracers, results = [], []
    for label in ("a", "b"):
        tracer = Tracer(f"{workload.name}-seed{seed}-{label}")
        outcome, ops = run_pass(workload, tracer)
        ops.check(
            tracer.counts["workers.answers"] == outcome.answers,
            f"workers answered {tracer.counts['workers.answers']} times, the table holds {outcome.answers} purchased answers",
        )
        attempted, failed, failures = attempted + ops.attempted, failed + ops.failed, failures + ops.failures
        tracers.append(tracer)
        results.append(outcome)
    if failed:
        return {name: 0.0 for name, _, _ in PER_LAYER}, attempted, failed, failures, {}
    first, second = (layer_metrics(t, o, untraced) for t, o in zip(tracers, results))
    attempted += 1
    differing = [name for name in EXACT if first[name] != second[name]]
    if differing:
        failed += 1
        failures.append(
            "two traced passes with one seed disagree on "
            + ", ".join(f"{name} ({first[name]} != {second[name]})" for name in differing)
        )
    os.makedirs(traces_dir, exist_ok=True)
    path = os.path.join(traces_dir, f"{workload.name}.spans")
    write_spans(path, tracers)
    layers = ("core", "transport", "wire", "server", "store", "engine", "codec", "quality")
    selfs = {layer: first.get(f"{layer}.self_s", first.get(f"{layer}.s", 0.0)) for layer in layers}
    ranking = sorted(selfs.items(), key=lambda item: -item[1])
    info = {
        "spans written to": os.path.relpath(path, ROOT),
        "self time by layer": ", ".join(f"{layer} {value:.3f} s" for layer, value in ranking),
        "largest self-time layer": ranking[0][0],
        "tracing overhead": f"untraced {first['trace.untraced_objects_per_s']:.1f} vs traced {first['trace.traced_objects_per_s']:.1f} objects/s",
    }
    return first, attempted, failed, failures, info
