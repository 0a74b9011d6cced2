"""The repo benchmark: eight workloads on two clocks, with an outside-in layer trace.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/run.py --workload serve_single --seed 0 --seconds 10 --trace 0

prints every metric by name with its unit, checks the outputs, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics from untraced repetitions; ``--trace 1``
reports the per-layer metrics from repetitions run with the wrappers of
:mod:`benchmarks.spans` installed.

Without ``--workload`` the command runs the whole set -- each workload and
pass in a fresh child process, strictly one after another -- adds the
cross-workload checks and writes ``benchmarks/results/latest.json`` plus one
``spans-<workload>.json`` per workload.  ``--repeat-check`` runs the untraced
set twice and writes ``benchmarks/results/noise.json``.

See ``benchmarks/README.md`` for what each metric means and how to claim a
gain with it.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: on a 2-core shared box a second
# BLAS thread doubles cpu_s and makes wall_s depend on what the neighbours do.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.spans import Recorder, Trace  # noqa: E402
from benchmarks.workloads import WORKLOADS, Outcome, Workload  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"
WARMUP_SCALE = 0.1
MIN_REPS = 3
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: What :func:`calibration_s` takes on the 2-core reference box in a quiet spell.
CALIBRATION_REFERENCE_S = 0.034

#: ``(name, unit, better, bound)``: the metrics a user of the simulator sees.
#: The three clocks are host seconds *at reference speed*: measured seconds
#: times ``CALIBRATION_REFERENCE_S / calibration_s``, the calibration loop
#: being timed right before and after the repetition.  The shared box drifts
#: by 10-30 % for minutes at a time; raw seconds cannot be held to any bound
#: the driver allows, so they are recorded beside these but not gated.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: ``(name, unit, better, moves)``: ``moves`` names the end-to-end metric and
#: workloads a change to this number should show up in.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("hw.calls", "count", "lower", "wall_s on sched_raw, cache_write_churn, serve_*"),
    ("hw.events", "count", "lower", "events_per_s everywhere (its numerator)"),
    ("hw.self_s", "s", "lower", "wall_s on sched_raw (~all), cache_write_churn (~half), serve_*"),
    ("hw.us_per_event", "us", "lower", "events_per_s on sched_raw; compare before wall_s"),
    ("hw.alloc_calls", "count", "lower", "wall_s on cache_write_churn, serve_cluster_cached"),
    ("hw.sim_gpu_util", "ratio", "higher", "sim.ms everywhere"),
    ("hw.sim_link_busy_share", "ratio", "lower", "sim.ms on sched_raw, serve_cluster_cached"),
    ("hw.sim_nic_bytes", "B", "lower", "sim.p99_ms on serve_cluster_cached"),
    ("tensor.op_calls", "count", "lower", "wall_s on zoo_offline, serve_single, serve_scaleout_burst"),
    ("tensor.self_s", "s", "lower", "wall_s and cpu_s on zoo_offline"),
    ("tensor.us_per_op", "us", "lower", "wall_s on zoo_offline (numeric), serve_* (shape math)"),
    ("tensor.flops_charged", "flop", "lower", "sim.ms on zoo_offline and serve_*"),
    ("nn.forward_calls", "count", "lower", "wall_s on zoo_offline"),
    ("nn.self_s", "s", "lower", "wall_s on zoo_offline"),
    ("models.iterations", "count", "lower", "wall_s on zoo_offline and serve_*"),
    ("models.prepare_s", "s", "lower", "wall_s on serve_*; with compute_s the sampling/compute split"),
    ("models.compute_s", "s", "lower", "wall_s on zoo_offline and serve_*"),
    ("models.self_s", "s", "lower", "wall_s on zoo_offline and serve_*"),
    ("graph.sample_calls", "count", "lower", "wall_s on serve_scaleout_burst, serve_single"),
    ("graph.sample_rows", "count", "lower", "wall_s on serve_scaleout_burst; falls as cache.hit_rate rises"),
    ("graph.sample_s", "s", "lower", "wall_s on serve_scaleout_burst (most), serve_single"),
    ("graph.sample_us_per_row", "us", "lower", "wall_s on serve_scaleout_burst"),
    ("graph.stream_s", "s", "lower", "wall_s on serve_single; setup_s on serve_*"),
    ("cache.probe_keys", "count", "lower", "wall_s on cache_read_hot, serve_cluster_cached"),
    ("cache.put_keys", "count", "lower", "wall_s on cache_write_churn, serve_cluster_cached"),
    ("cache.invalidated_keys", "count", "lower", "wall_s on cache_write_churn"),
    ("cache.evictions", "count", "lower", "wall_s on cache_write_churn; cache.hit_rate"),
    ("cache.hit_rate", "ratio", "higher", "sim.p99_ms on serve_cluster_cached"),
    ("cache.bytes_peak", "B", "lower", "peak_rss_mb on serve_cluster_cached"),
    ("cache.self_s", "s", "lower", "wall_s on cache_read_hot, cache_write_churn, serve_cluster_cached"),
    ("cache.probe_us_per_key", "us", "lower", "wall_s on cache_read_hot"),
    ("cache.put_us_per_key", "us", "lower", "wall_s on cache_write_churn"),
    ("cache.put_self_us_per_key", "us", "lower", "wall_s on cache_write_churn (cache's own part)"),
    ("serve.requests", "count", "higher", "attempted on serve_*"),
    ("serve.batches", "count", "lower", "wall_s on serve_* (per-batch hw and models cost)"),
    ("serve.mean_batch", "count", "higher", "wall_s per request down, sim.p99_ms up, on serve_*"),
    ("serve.self_s", "s", "lower", "wall_s on serve_* (~2% today: predicted no change)"),
    ("serve.us_per_request", "us", "lower", "wall_s on serve_*"),
    ("serve.policy_calls", "count", "lower", "wall_s on serve_scaleout_burst"),
    ("serve.policy_s", "s", "lower", "wall_s on serve_scaleout_burst"),
    ("serve.router_s", "s", "lower", "wall_s on serve_scaleout_burst, serve_cluster_cached"),
    ("serve.gen_requests_s", "s", "lower", "setup_s on serve_*"),
    ("serve.sim_queue_p99_ms", "ms", "lower", "sim.p99_ms on serve_*"),
    ("serve.sim_service_p99_ms", "ms", "lower", "sim.p99_ms on serve_*"),
    ("serve.sim_throughput_rps", "1/s", "higher", "sim.ms on serve_*"),
    ("serve.sim_slo_violation_share", "ratio", "lower", "sim.p99_ms on serve_scaleout_burst"),
    ("obs.hook_calls", "count", "lower", "wall_s on serve_single_traced"),
    ("obs.hook_s", "s", "lower", "wall_s on serve_single_traced"),
    ("obs.spans", "count", "lower", "peak_rss_mb on serve_single_traced"),
    ("obs.trace_events", "count", "lower", "peak_rss_mb and wall_s on serve_single_traced"),
    ("obs.export_s", "s", "lower", "wall_s on serve_single_traced"),
    ("obs.critical_path_s", "s", "lower", "wall_s on serve_single_traced"),
    ("obs.overhead_ratio", "ratio", "lower", "wall_s on serve_single_traced over serve_single"),
    ("obs.sim_cp_queue_share", "ratio", "lower", "sim.p99_ms on serve_single_traced"),
    ("obs.sim_cp_sample_share", "ratio", "lower", "sim.p99_ms on serve_single_traced"),
    ("obs.sim_cp_compute_share", "ratio", "lower", "sim.p99_ms on serve_single_traced"),
    ("core.capture_s", "s", "lower", "wall_s on zoo_offline"),
    ("core.analysis_s", "s", "lower", "wall_s on zoo_offline"),
    ("core.sim_gpu_util", "ratio", "higher", "sim.ms on zoo_offline"),
    ("core.sim_transfer_share", "ratio", "lower", "sim.ms on zoo_offline"),
    ("core.sim_warmup_share", "ratio", "lower", "sim.ms on zoo_offline (the 6.2 s context)"),
    ("datasets.load_calls", "count", "lower", "setup_s on zoo_offline"),
    ("datasets.load_s", "s", "lower", "setup_s on zoo_offline, serve_*"),
    ("sim.ms", "ms", "lower", "the modelled hardware's own time: must not move on a host-only change"),
    ("sim.p99_ms", "ms", "lower", "the modelled tail latency on serve_*; 0 off the serving path"),
    ("trace.overhead_ratio", "ratio", "lower", "how far the traced wall_s is from the untraced one"),
)


# -- one repetition ------------------------------------------------------------


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def calibration_s(rounds: int = 100_000) -> float:
    """Host seconds of a fixed loop shaped like the simulator's hot paths.

    Small-object allocation, dict and list traffic, attribute reads and float
    arithmetic in pure Python.  Run right before and after a repetition, it
    says how fast the box is *now*.  One long loop, not the fastest of several
    short ones: the neighbours' interference comes in bursts of milliseconds,
    a repetition pays their average, and only a mean tracks an average (the
    minimum left a 27 % spread where the mean left 8 %).
    """
    started = time.perf_counter()
    table: Dict[int, _Cell] = {}
    recent: List[_Cell] = []
    total = 0.0
    for index in range(rounds):
        cell = _Cell(index, index * 0.5)
        table[index & 1023] = cell
        recent.append(cell)
        total += table[(index * 7) & 1023 if index > 1023 else index & 1023].weight
        if len(recent) > 256:
            recent.clear()
    return time.perf_counter() - started


@dataclass
class Rep:
    """One repetition; the three clocks are raw host seconds."""

    setup_s: float
    wall_s: float
    cpu_s: float
    #: Mean of the calibration loop before and after the repetition.
    calibration_s: float
    outcome: Outcome
    setup_trace: Optional[Trace] = None
    trace: Optional[Trace] = None


def fingerprint(outcome: Outcome) -> str:
    """sha256 over the ordered simulated statistics (floats by ``repr``)."""
    return hashlib.sha256(json.dumps(outcome.sim_stats).encode()).hexdigest()


def run_rep(workload: Workload, seed: int, scale: float,
            recorder: Optional[Recorder] = None) -> Rep:
    """Set up and run one repetition; with a recorder, trace both phases."""
    gc.collect()
    calibration = calibration_s()
    if recorder is not None:
        recorder.reset()
    started = time.perf_counter()
    state = workload.setup(seed, scale)
    setup_s = time.perf_counter() - started
    setup_trace = recorder.finish(setup_s) if recorder is not None else None
    gc.collect()
    if recorder is not None:
        recorder.reset()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        outcome = workload.run(state)
    except Exception:
        # A raised measured phase is one failed operation, reported not fatal.
        outcome = Outcome(0, 0.0, None, 1, 1, {"raised": True},
                          problems=[traceback.format_exc()])
    wall_s = time.perf_counter() - wall_started
    cpu_s = time.process_time() - cpu_started
    trace = recorder.finish(wall_s) if recorder is not None else None
    calibration = (calibration + calibration_s()) / 2.0
    return Rep(setup_s, wall_s, cpu_s, calibration, outcome, setup_trace, trace)


def repeat(workload: Workload, seed: int, seconds: float, min_reps: int,
           recorder: Optional[Recorder] = None, started: Optional[float] = None) -> List[Rep]:
    """Fixed-size repetitions until the next one would overrun ``seconds``."""
    started = time.perf_counter() if started is None else started
    reps: List[Rep] = []
    while True:
        rep_started = time.perf_counter()
        reps.append(run_rep(workload, seed, 1.0, recorder))
        now = time.perf_counter()
        if len(reps) >= min_reps and now - started + (now - rep_started) > seconds:
            return reps


# -- metrics -------------------------------------------------------------------


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median and quartiles of one metric's per-repetition samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "samples": len(samples)}


def _ratio(numerator: float, denominator: float, factor: float = 1.0) -> float:
    return numerator / denominator * factor if denominator else 0.0


def layer_metrics(rep: Rep) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition (0 where a layer is idle)."""
    trace, setup, outcome = rep.trace, rep.setup_trace, rep.outcome
    values = {name: 0.0 for name, *_ in PER_LAYER}
    values.update(outcome.layer)
    events = outcome.events
    hw_self = trace.total("hw")
    values.update({
        "hw.calls": trace.total("hw", column=0),
        "hw.events": events,
        "hw.self_s": hw_self,
        "hw.us_per_event": _ratio(hw_self, events, 1e6),
        "hw.alloc_calls": trace.total("hw", ["Machine.alloc"], column=0),
    })
    op_calls = trace.total("tensor", column=0)
    values.update({
        "tensor.op_calls": op_calls,
        "tensor.self_s": trace.total("tensor"),
        "tensor.us_per_op": _ratio(trace.total("tensor"), op_calls, 1e6),
        "nn.forward_calls": trace.total("nn", column=0),
        "nn.self_s": trace.total("nn"),
    })
    # Model iterations are kept spans: a prepare nested inside a blocking or
    # dispatched iteration (the cached path) counts as prepare, not compute.
    prepare = {
        row[0]: row[5] - row[4] for row in trace.kept
        if row[3].endswith(".prepare_iteration")
    }
    compute_rows = [
        row for row in trace.kept
        if row[2] == "models" and not row[3].endswith(".prepare_iteration")
    ]
    compute_ids = {row[0] for row in compute_rows}
    nested = sum(
        duration for span_id, duration in prepare.items()
        if trace.kept[span_id - 1][1] in compute_ids
    )
    values.update({
        "models.iterations": len(compute_rows),
        "models.prepare_s": sum(prepare.values()),
        "models.compute_s": sum(row[5] - row[4] for row in compute_rows) - nested,
        "models.self_s": trace.total("models"),
    })
    sample_s = trace.total("graph", ["sample"], column=1)
    sample_rows = trace.total("graph", ["sample"], column=3)
    values.update({
        "graph.sample_calls": trace.total("graph", ["sample"], column=0),
        "graph.sample_rows": sample_rows,
        "graph.sample_s": sample_s,
        "graph.sample_us_per_row": _ratio(sample_s, sample_rows, 1e6),
        "graph.stream_s": trace.total("graph", ["concat", "slice_indices"], column=1),
    })
    store = "DeviceResidentCache."
    probes = [store + "probe", store + "probe_many"]
    puts = [store + "put", store + "put_many"]
    values.update({
        "cache.self_s": trace.total("cache"),
        "cache.probe_us_per_key": _ratio(
            trace.total("cache", probes, column=1), values["cache.probe_keys"], 1e6),
        "cache.put_us_per_key": _ratio(
            trace.total("cache", puts, column=1), values["cache.put_keys"], 1e6),
        "cache.put_self_us_per_key": _ratio(
            trace.total("cache", puts), values["cache.put_keys"], 1e6),
    })
    policy = ["select_batch_size", "next_deadline_ms", "observe"]
    values.update({
        "serve.self_s": trace.total("serve"),
        "serve.us_per_request": _ratio(trace.total("serve"), values["serve.requests"], 1e6),
        "serve.policy_calls": trace.total("serve", policy, column=0),
        "serve.policy_s": trace.total("serve", policy),
        "serve.router_s": trace.total("serve", ["route", "notify_dispatch", "notify_complete"]),
        "serve.gen_requests_s": setup.total("serve", ["generate_requests"], column=1),
    })
    # Everything in obs that is not the end-of-run export/analysis is a hook
    # the serving loop called.
    analysis = ["build_trace", "validate_trace", "attribute_request"]
    values.update({
        "obs.hook_calls": trace.total("obs", column=0) - trace.total("obs", analysis, column=0),
        "obs.hook_s": trace.total("obs") - trace.total("obs", analysis),
        "obs.export_s": trace.total("obs", analysis[:2], column=1),
        "obs.critical_path_s": trace.total("obs", analysis[2:], column=1),
        "core.capture_s": trace.total("core", ["Profiler.capture"], column=1),
        "core.analysis_s": trace.total(
            "core", ["compute_breakdown", "analyze_profile"], column=1),
        "datasets.load_calls": setup.total("datasets", column=0),
        "datasets.load_s": setup.total("datasets", column=1),
        "sim.ms": outcome.sim_ms,
        "sim.p99_ms": outcome.sim_p99_ms or 0.0,
    })
    return values


# -- one workload, one pass ----------------------------------------------------


def _tally(reps: Sequence[Rep]) -> Tuple[int, int, List[str]]:
    """Operations attempted and failed over ``reps``, with the reasons.

    A repetition whose simulated statistics differ from the first one's, or
    that broke a conservation check, fails as a whole.
    """
    attempted = failed = 0
    problems: List[str] = []
    first = fingerprint(reps[0].outcome)
    for index, rep in enumerate(reps):
        outcome = rep.outcome
        attempted += outcome.ops_attempted
        bad = list(outcome.problems)
        if fingerprint(outcome) != first:
            bad.append(f"rep {index} simulated statistics differ from rep 0")
        failed += outcome.ops_attempted if bad else outcome.ops_failed
        problems.extend(bad)
        if outcome.ops_failed and not bad:
            problems.append(f"rep {index}: {outcome.ops_failed} operations did not complete")
    return attempted, failed, problems


def run_untraced(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    run_rep(workload, seed, WARMUP_SCALE)
    reps = repeat(workload, seed, seconds, MIN_REPS)
    attempted, failed, problems = _tally(reps)
    # Seconds at reference speed per measured second, around each repetition
    # (below 1 while the box is slower than the reference).
    scale = [CALIBRATION_REFERENCE_S / rep.calibration_s for rep in reps]
    samples = {
        "setup_s": [rep.setup_s * k for rep, k in zip(reps, scale)],
        "wall_s": [rep.wall_s * k for rep, k in zip(reps, scale)],
        "cpu_s": [rep.cpu_s * k for rep, k in zip(reps, scale)],
        "events_per_s": [
            _ratio(rep.outcome.events, rep.wall_s * k) for rep, k in zip(reps, scale)],
        # The process's high-water mark: one value per run, not per repetition.
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    raw = {
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "cpu_s": statistics.median(rep.cpu_s for rep in reps),
        "calibration_s": statistics.median(rep.calibration_s for rep in reps),
    }
    outcome = reps[0].outcome
    return {
        "workload": workload.name,
        "seed": seed,
        "reps": len(reps),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_share": failed / attempted,
        "sim_ms": outcome.sim_ms,
        "sim_p99_ms": outcome.sim_p99_ms,
        "sim_fingerprint": fingerprint(outcome),
        "problems": problems,
        "raw_seconds": raw,
        "metrics": {
            name: dict(summarize(samples[name]), unit=unit) for name, unit, *_ in END_TO_END
        },
    }


def run_traced(workload: Workload, seed: int, seconds: float,
               spans_out: Optional[Path] = None) -> Dict[str, Any]:
    run_rep(workload, seed, WARMUP_SCALE)
    started = time.perf_counter()
    untraced = run_rep(workload, seed, 1.0)
    problems: List[str] = []
    obs_overhead = 0.0
    if workload.bypass is not None:
        bypass = run_rep(WORKLOADS[workload.bypass], seed, 1.0)
        obs_overhead = _ratio(untraced.wall_s, bypass.wall_s)
        if bypass.outcome.sim_p99_ms != untraced.outcome.sim_p99_ms:
            problems.append(
                f"sim p99 {untraced.outcome.sim_p99_ms} differs from {workload.bypass}'s "
                f"{bypass.outcome.sim_p99_ms}")
    recorder = Recorder().install()
    try:
        reps = repeat(workload, seed, seconds, 1, recorder, started)
    finally:
        recorder.uninstall()
    attempted, failed, tally_problems = _tally([untraced] + reps)
    problems.extend(tally_problems)
    for rep in reps:
        covered = sum(row["self_s"] for row in rep.trace.layer_table()[:-1])
        if covered > rep.wall_s * (1 + 1e-9):
            problems.append(f"layer self times {covered} exceed the traced wall {rep.wall_s}")
    per_rep = [layer_metrics(rep) for rep in reps]
    traced_wall = statistics.median(rep.wall_s for rep in reps)
    for values in per_rep:
        values["obs.overhead_ratio"] = obs_overhead
        values["trace.overhead_ratio"] = _ratio(traced_wall, untraced.wall_s)
    last = reps[-1]
    if spans_out is not None:
        payload = last.trace.as_payload()
        payload.update({
            "workload": workload.name,
            "seed": seed,
            "request_columns": [
                "request", "batch", "replica", "arrival_ms", "dispatched_ms", "completed_ms"],
            "requests": last.outcome.requests,
        })
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        spans_out.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return {
        "workload": workload.name,
        "seed": seed,
        "reps": len(reps),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "sim_fingerprint": fingerprint(last.outcome),
        "untraced_fingerprint": fingerprint(untraced.outcome),
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced_wall,
        "layers": last.trace.layer_table(),
        "problems": problems,
        "metrics": {
            name: dict(summarize([values[name] for values in per_rep]), unit=unit)
            for name, unit, *_ in PER_LAYER
        },
    }


# -- declared names ------------------------------------------------------------


def declaration_problems() -> List[str]:
    """Differences between this file's tables and ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, ours in (
        ("workloads", list(WORKLOADS)),
        ("end_to_end", [name for name, *_ in END_TO_END]),
        ("per_layer", [name for name, *_ in PER_LAYER]),
    ):
        theirs = [entry["name"] for entry in declared[key]]
        if sorted(theirs) != sorted(ours):
            problems.append(
                f"{key}: BENCHMARK.json and run.py disagree on "
                f"{sorted(set(theirs) ^ set(ours))}")
        problems.extend(
            f"{key}: bad name {name!r}" for name in ours if not NAME_PATTERN.match(name))
    return problems


# -- output --------------------------------------------------------------------


def print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    print(f"== {name}  seed {record['seed']}  reps {record['reps']}  "
          f"ops {record['ops_attempted']} attempted / {record['ops_failed']} failed  "
          f"sim_fingerprint {record['sim_fingerprint'][:16]}")
    if "sim_ms" in record:
        print(f"   sim_ms {record['sim_ms']!r} ms   sim_p99_ms {record['sim_p99_ms']!r} ms   "
              f"failed_share {record['failed_share']!r}")
        print("   raw medians, not at reference speed:  " + "  ".join(
            f"{name} {value:.6g} s" for name, value in record["raw_seconds"].items()))
    for metric, entry in record["metrics"].items():
        print(f"   {metric:<32} {entry['value']:>16.6g} {entry['unit']:<6} "
              f"[q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['samples']}]")
    if "layers" in record:
        print(f"   layer table (self seconds of the traced wall {record['traced_wall_s']:.4f} s; "
              f"untraced {record['untraced_wall_s']:.4f} s)")
        for row in record["layers"]:
            print(f"     {row['layer']:<10} {row['self_s']:>10.4f} s  {row['share']:>7.1%}  "
                  f"{row['calls']:>9} calls")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}")


def _correct(record: Dict[str, Any]) -> bool:
    return not record["problems"] and record["ops_failed"] == 0


def final_line(record: Dict[str, Any]) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps({
        "correct": _correct(record),
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    })


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    problems = declaration_problems()
    if args.trace:
        record = run_traced(workload, args.seed, args.seconds, args.spans_out)
    else:
        record = run_untraced(workload, args.seed, args.seconds)
    record["problems"].extend(problems)
    print_record(record)
    print("RECORD " + json.dumps(record))
    print(final_line(record))
    return 0 if _correct(record) else 1


# -- the whole set -------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Run one workload and pass in a fresh process; returns its record."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        command += ["--spans-out", str(RESULTS / f"spans-{workload}.json")]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.splitlines()
    records = [line for line in lines if line.startswith("RECORD ")]
    if not records:
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode} without a record:\n"
            f"{done.stdout}\n{done.stderr}")
    print("\n".join(line for line in lines if not line.startswith(("RECORD ", "{"))))
    sys.stdout.flush()
    return json.loads(records[0][len("RECORD "):])


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _meta(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": _git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "recorded": time.strftime("%Y-%m-%d %H:%M:%S"),
    }


def run_set(seed: int, seconds: float, passes: Sequence[int]) -> Tuple[Dict[str, Any], List[str]]:
    """Every workload, one pass after another; returns records and failures."""
    labels = {0: "end_to_end", 1: "per_layer"}
    results: Dict[str, Any] = {name: {} for name in WORKLOADS}
    failures = declaration_problems()
    for trace in passes:
        for name in WORKLOADS:
            record = _child(name, seed, seconds, trace)
            results[name][labels[trace]] = record
            failures.extend(f"{name}: {problem}" for problem in record["problems"])
            if record["ops_failed"]:
                failures.append(f"{name}: {record['ops_failed']} operations failed")
    for name, workload in WORKLOADS.items():
        both = results[name]
        if workload.bypass is not None and "end_to_end" in both:
            ours, theirs = both["end_to_end"], results[workload.bypass]["end_to_end"]
            if ours["sim_p99_ms"] != theirs["sim_p99_ms"]:
                failures.append(
                    f"{name}: sim_p99_ms {ours['sim_p99_ms']} != "
                    f"{workload.bypass}'s {theirs['sim_p99_ms']}")
        if len(both) == 2 and (
            both["per_layer"]["sim_fingerprint"] != both["end_to_end"]["sim_fingerprint"]
        ):
            failures.append(f"{name}: traced sim_fingerprint differs from the untraced pass")
    return results, failures


def _write_result(name: str, args: argparse.Namespace, failures: List[str],
                  **content: Any) -> int:
    """Write ``results/<name>``, print the failures, return the exit code."""
    payload = {"meta": _meta(args), "ok": not failures, "failures": failures, **content}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {RESULTS / name}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def run_suite(args: argparse.Namespace) -> int:
    passes = (0, 1) if args.trace is None else (args.trace,)
    results, failures = run_set(args.seed, args.seconds, passes)
    return _write_result("latest.json", args, failures, workloads=results)


def run_repeat_check(args: argparse.Namespace) -> int:
    """Two back-to-back untraced sets must agree within the declared bounds."""
    first, failures = run_set(args.seed, args.seconds, (0,))
    second, more = run_set(args.seed, args.seconds, (0,))
    failures.extend(more)
    rows = []
    print(f"{'workload':<22} {'metric':<16} {'first':>14} {'second':>14} {'worse by':>9} "
          f"{'bound':>6}")
    for name in WORKLOADS:
        a, b = first[name]["end_to_end"], second[name]["end_to_end"]
        for metric, _, better, bound in END_TO_END:
            x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            agree = abs(worse) <= bound
            rows.append({"workload": name, "metric": metric, "first": x, "second": y,
                         "relative_difference": worse, "bound": bound, "agree": agree})
            print(f"{name:<22} {metric:<16} {x:>14.6g} {y:>14.6g} {worse:>+9.2%} {bound:>6.0%}"
                  f"{'' if agree else '  DISAGREE'}")
            if not agree:
                failures.append(f"{name}: {metric} differs by {worse:+.2%} (bound {bound:.0%})")
        for key in ("sim_ms", "sim_p99_ms", "sim_fingerprint", "failed_share"):
            same = a[key] == b[key]
            rows.append({"workload": name, "metric": key, "first": a[key], "second": b[key],
                         "bound": 0.0, "agree": same})
            if not same:
                failures.append(f"{name}: {key} {a[key]} != {b[key]}")
    return _write_result("noise.json", args, failures, pairs=rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload in this process (default: the whole set)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="0: untraced end-to-end pass, 1: traced per-layer pass "
                             "(default: 0 for one workload, both for the set)")
    parser.add_argument("--spans-out", type=Path,
                        help="with --workload and --trace 1: write the spans file here")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the untraced set twice and compare against the bounds")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args)
    if args.repeat_check:
        return run_repeat_check(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
