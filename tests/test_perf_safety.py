"""Perf-safety regression tests: the optimized hot path must be a pure
speedup.

The PR that introduced the benchmark subsystem rewrote the scheduler's inner
loops (incremental busy accounting, cached kernel costs and routes, batched
kernel charging, vectorized sampler index construction).  These tests pin
the optimized implementations against reference slow-path implementations --
verbatim copies of the pre-optimization code -- on randomized programs:
same intervals, same event logs, same samples, byte for byte.
"""

import contextlib
import functools
import gc
import os
import sys
import time
from dataclasses import replace
from functools import partial
from unittest.mock import Mock

import numpy as np
import pytest

import repro
from repro._compat import ordered_sum
from repro.cache import DeviceResidentCache, ModelCache, make_eviction_policy
from repro.core import (
    WORKLOAD_IMBALANCE,
    DeviceSnapshot,
    Profile,
    Profiler,
    UtilizationPoint,
    UtilizationReport,
    analyze_profile,
    cpu_busy_gpu_idle_fraction,
    detect_data_movement,
    detect_gpu_warmup,
    detect_temporal_dependency,
    detect_workload_imbalance,
    utilization_report,
)
from repro.graph.events import EventStream
from repro.graph.sampling import _PER_K_LIMIT, TemporalNeighborSampler, target_costs_us
from repro.hw import Cluster
from repro.hw import device as device_module
from repro.hw import link as link_module
from repro.hw.device import Device
from repro.hw.events import ALLOC, KERNEL, MARKER, SYNC, TRANSFER, WARMUP, Event
from repro.hw.machine import Machine
from repro.hw.stream import union_busy_ms
from repro.hw.timeline import Timeline
from repro.tensor import Tensor, ops
from repro.tensor.meta import is_placeholder


# -- reference slow paths (pre-optimization implementations) ---------------


def reference_busy_ms(intervals, start_ms=None, end_ms=None):
    """Pre-optimization Timeline.busy_ms: a full scan per query (left-to-right
    totals: ``ordered_sum`` is the pre-3.12 builtin ``sum``)."""
    if start_ms is None and end_ms is None:
        return ordered_sum(i.duration_ms for i in intervals)
    lo = start_ms if start_ms is not None else float("-inf")
    hi = end_ms if end_ms is not None else float("inf")
    total = 0.0
    for interval in intervals:
        overlap = min(interval.end_ms, hi) - max(interval.start_ms, lo)
        if overlap > 0:
            total += overlap
    return total


def reference_union_busy_ms(timelines, start_ms=None, end_ms=None):
    """Pre-optimization union_busy_ms: clip everything, sort, merge."""
    lo = start_ms if start_ms is not None else float("-inf")
    hi = end_ms if end_ms is not None else float("inf")
    spans = []
    for timeline in timelines:
        for interval in timeline:
            clipped_lo = max(interval.start_ms, lo)
            clipped_hi = min(interval.end_ms, hi)
            if clipped_hi > clipped_lo:
                spans.append((clipped_lo, clipped_hi))
    if not spans:
        return 0.0
    spans.sort()
    total = 0.0
    current_lo, current_hi = spans[0]
    for span_lo, span_hi in spans[1:]:
        if span_lo > current_hi:
            total += current_hi - current_lo
            current_lo, current_hi = (span_lo, span_hi)
        else:
            current_hi = max(current_hi, span_hi)
    total += current_hi - current_lo
    return total


def reference_build_index(stream):
    """Pre-optimization sampler index: per-event Python loop + stable sort."""
    adjacency = [[] for _ in range(stream.num_nodes)]
    for index in range(stream.num_events):
        s = int(stream.src[index])
        d = int(stream.dst[index])
        t = float(stream.timestamps[index])
        adjacency[s].append((t, d, index))
        adjacency[d].append((t, s, index))
    packed = []
    for entries in adjacency:
        if entries:
            entries.sort(key=lambda item: item[0])
            times = np.array([e[0] for e in entries], dtype=np.float64)
            neighbors = np.array([e[1] for e in entries], dtype=np.int64)
            event_ids = np.array([e[2] for e in entries], dtype=np.int64)
        else:
            times = np.empty(0, dtype=np.float64)
            neighbors = np.empty(0, dtype=np.int64)
            event_ids = np.empty(0, dtype=np.int64)
        packed.append((times, neighbors, event_ids))
    return packed


def reference_sample(adjacency, rng, uniform, nodes, timestamps, k):
    """Pre-optimization sample loop (minus the machine charge)."""
    batch = len(nodes)
    neighbor_ids = np.zeros((batch, k), dtype=np.int64)
    neighbor_times = np.zeros((batch, k), dtype=np.float64)
    event_indices = np.zeros((batch, k), dtype=np.int64)
    mask = np.zeros((batch, k), dtype=np.float32)
    degrees = np.zeros(batch, dtype=np.int64)
    for row, (node, timestamp) in enumerate(zip(nodes, timestamps)):
        times, neighbors, event_ids = adjacency[int(node)]
        cutoff = int(np.searchsorted(times, timestamp, side="left"))
        degrees[row] = cutoff
        if cutoff == 0:
            continue
        if uniform and cutoff > k:
            chosen = np.sort(rng.choice(cutoff, size=k, replace=False))
        else:
            chosen = np.arange(max(0, cutoff - k), cutoff)
        count = len(chosen)
        neighbor_ids[row, :count] = neighbors[chosen]
        neighbor_times[row, :count] = times[chosen]
        event_indices[row, :count] = event_ids[chosen]
        mask[row, :count] = 1.0
    return (neighbor_ids, neighbor_times, event_indices, mask, degrees)


# -- randomized programs ----------------------------------------------------


def random_stream(rng, num_events=120, num_nodes=25):
    timestamps = np.sort(rng.uniform(0.0, 1000.0, size=num_events))
    return EventStream(
        src=rng.integers(0, num_nodes, size=num_events),
        dst=rng.integers(0, num_nodes, size=num_events),
        timestamps=timestamps,
        num_nodes=num_nodes,
    )


def drive_random_program(machine, seed, steps=120, batch_api=False):
    """Issue a random mix of kernels/transfers/syncs/streams to ``machine``.

    With ``batch_api=True``, runs of identical kernels go through the
    batched ``launch_kernels`` call instead of one ``launch_kernel`` per
    repetition -- the schedules must match exactly either way.
    """
    rng = np.random.default_rng(seed)
    devices = list(machine.devices)
    recorded = []
    with machine.activate():
        for _ in range(steps):
            action = rng.integers(0, 10)
            device = devices[int(rng.integers(0, len(devices)))]
            if action <= 3:
                count = int(rng.integers(0, 5))
                flops = float(rng.integers(1, 50)) * 1e6
                nbytes = float(rng.integers(1, 100)) * 1e3
                # An explicit stream, a use_stream override, or the current one.
                placement = int(rng.integers(0, 4))
                stream = machine.stream(device, "worker") if placement == 0 else None
                override = (
                    machine.use_stream(machine.stream(device, "side"))
                    if placement == 1
                    else contextlib.nullcontext()
                )
                with override:
                    if batch_api:
                        machine.launch_kernels(device, "k", count, flops, nbytes, stream=stream)
                    else:
                        for _ in range(count):
                            machine.launch_kernel(device, "k", flops, nbytes, stream=stream)
            elif action == 4:
                machine.host_work("host", float(rng.uniform(0.01, 0.5)))
            elif action <= 6:
                src = devices[int(rng.integers(0, len(devices)))]
                dst = devices[int(rng.integers(0, len(devices)))]
                if src is not dst:
                    machine.transfer(
                        src,
                        dst,
                        int(rng.integers(1, 10)) * 4096,
                        non_blocking=bool(rng.integers(0, 2)),
                    )
            elif action == 7:
                stream = machine.stream(device, "worker")
                event = machine.record_event(stream, name="mark")
                machine.wait_event(machine.default_stream(device), event)
            elif action == 8:
                machine.synchronize()
            else:
                with machine.region("phase"):
                    machine.host_work("annotated", 0.05)
        machine.synchronize(name="final")
    recorded.extend(machine.events)
    return recorded


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_windowed_busy_matches_reference_scan(seed):
    rng = np.random.default_rng(seed)
    timeline = Timeline("t")
    cursor = 0.0
    for _ in range(300):
        cursor += float(rng.uniform(0.0, 2.0))
        timeline.reserve(cursor, float(rng.uniform(0.0, 1.5)))
    intervals = list(timeline)
    assert timeline.busy_ms() == reference_busy_ms(intervals)
    for _ in range(200):
        lo = float(rng.uniform(-10.0, 600.0))
        hi = lo + float(rng.uniform(0.0, 200.0))
        assert timeline.busy_ms(lo, hi) == reference_busy_ms(intervals, lo, hi)
        assert timeline.busy_ms(lo, None) == reference_busy_ms(intervals, lo, None)
        assert timeline.busy_ms(None, hi) == reference_busy_ms(intervals, None, hi)


@pytest.mark.parametrize("seed", [3, 4])
def test_union_busy_matches_reference_merge(seed):
    rng = np.random.default_rng(seed)
    timelines = []
    for _ in range(3):
        timeline = Timeline(f"t{len(timelines)}")
        cursor = 0.0
        for _ in range(150):
            cursor += float(rng.uniform(0.0, 1.0))
            timeline.reserve(cursor, float(rng.uniform(0.0, 2.0)))
        timelines.append(timeline)
    assert union_busy_ms(timelines) == reference_union_busy_ms(timelines)
    # A single timeline (the path that skips the sort) must agree too.
    single = timelines[0]
    assert union_busy_ms([single]) == reference_union_busy_ms([single])
    for _ in range(100):
        lo = float(rng.uniform(-5.0, 200.0))
        hi = lo + float(rng.uniform(0.0, 100.0))
        assert union_busy_ms(timelines, lo, hi) == reference_union_busy_ms(timelines, lo, hi)
        assert union_busy_ms([single], lo, hi) == reference_union_busy_ms([single], lo, hi)


def _reserved(name, pairs):
    """A timeline that ``reserve``d ``(ready, duration)`` pairs in order."""
    timeline = Timeline(name)
    for ready, duration in pairs:
        timeline.reserve(ready, duration)
    return timeline


def _random_streams(seed, streams, intervals):
    rng = np.random.default_rng(seed)
    return [
        _reserved(
            f"s{index}",
            zip(
                np.cumsum(rng.uniform(0.0, 1.0, intervals)).tolist(),
                rng.uniform(0.0, 2.0, intervals).tolist(),
            ),
        )
        for index in range(streams)
    ]


#: ``name -> streams``: merge inputs no golden reaches, each compared over
#: every window of :func:`merge_windows`.
MERGE_INPUTS = {
    "zero-length intervals": lambda: [
        _reserved("a", [(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (1.5, 0.0), (3.0, 0.0)]),
        Timeline.from_intervals("b", [(0.25, 0.25), (1.5, 1.5), (2.0, 2.5), (2.5, 2.5)]),
    ],
    "spans on two streams that touch": lambda: [
        Timeline.from_intervals("a", [(0.0, 0.1), (0.30000000000000004, 0.7), (1.0, 2.0)]),
        Timeline.from_intervals("b", [(0.1, 0.30000000000000004), (0.7, 1.0), (2.0, 2.5)]),
    ],
    "integer endpoints": lambda: [
        Timeline.from_intervals("a", [(0, 3), (5, 5), (5, 7), (9, 13)]),
        Timeline.from_intervals("b", [(2, 6), (7, 8), (13, 13), (20, 25)]),
        _reserved("c", [(1, 3), (5, 0), (6, 2), (9, 4)]),
    ],
    "empty timelines": lambda: [Timeline("empty"), Timeline("also-empty")],
    "an empty and a busy timeline": lambda: [Timeline("empty"), _reserved("a", [(1.0, 2.0)])],
    "10 000 intervals on three streams": lambda: _random_streams(5, 3, 3_334),
}


def merge_windows(timelines):
    """Two-sided, one-sided, unbounded, empty and out-of-span windows, some
    with integer bounds."""
    first = min((t.span()[0] for t in timelines if len(t)), default=0.0)
    last = max((t.free_at for t in timelines), default=0.0)
    middle = (first + last) / 2
    return [
        (None, None),
        (first, last),
        (None, middle),
        (middle, None),
        (middle, middle),
        (first - 10, first - 1),
        (last + 1, last + 10),
        (None, first),
        (last, None),
        (first + (last - first) / 3, last - (last - first) / 3),
        (int(first) + 1, int(last) - 1),
        (None, int(last) // 2),
        (int(last) // 2, None),
    ]


@pytest.mark.parametrize("case", sorted(MERGE_INPUTS))
def test_merged_and_union_busy_match_reference_on_named_inputs(case):
    timelines = MERGE_INPUTS[case]()
    for window in merge_windows(timelines):
        union = union_busy_ms(timelines, *window)
        assert type(union) is float and union == reference_union_busy_ms(timelines, *window)
        for timeline in timelines:
            merged = union_busy_ms([timeline], *window)
            assert type(merged) is float
            assert merged == reference_union_busy_ms([timeline], *window), (timeline.name, window)


def stream_timelines(machine):
    """Every stream of every device and link (default, worker, side, copy)."""
    return {
        (resource.name, stream.name): stream.timeline.intervals
        for resource in (*machine.devices, *machine.links)
        for stream in resource.streams
    }


@pytest.mark.parametrize("spec", ["1xA6000", "2xA100-pcie", "2xA100-nvlink"])
@pytest.mark.parametrize("seed", [11, 12])
def test_batched_kernel_charging_is_byte_identical(spec, seed):
    """launch_kernels == a loop of launch_kernel, on every topology."""
    loop_machine = Machine.from_spec(spec)
    batch_machine = Machine.from_spec(spec)
    loop_events = drive_random_program(loop_machine, seed, batch_api=False)
    batch_events = drive_random_program(batch_machine, seed, batch_api=True)
    assert loop_machine.host_time_ms == batch_machine.host_time_ms
    assert loop_machine.event_count == batch_machine.event_count
    assert loop_events == batch_events
    timelines = stream_timelines(loop_machine)
    assert timelines == stream_timelines(batch_machine)
    streams = {stream for _, stream in timelines}
    assert {"default", "worker", "side", "copy"} <= streams
    assert loop_machine.device_flops_totals() == batch_machine.device_flops_totals()
    # ... and with the event log off, where only the charges remain to compare.
    silent = Machine.from_spec(spec, record_events=False)
    assert drive_random_program(silent, seed, batch_api=True) == []
    assert silent.host_time_ms == loop_machine.host_time_ms
    assert silent.event_count == loop_machine.event_count
    assert stream_timelines(silent) == timelines
    assert silent.device_flops_totals() == loop_machine.device_flops_totals()


@pytest.mark.parametrize("seed", [21, 22])
def test_disabling_event_recording_changes_nothing_but_the_log(seed):
    recorded = Machine.from_spec("2xA100-pcie")
    silent = Machine("2xA100-pcie", record_events=False)
    events = drive_random_program(recorded, seed)
    silent_events = drive_random_program(silent, seed)
    assert silent_events == []
    assert len(silent.events) == 0
    assert silent.event_count == recorded.event_count == len(events)
    assert silent.host_time_ms == recorded.host_time_ms
    for noisy, quiet in zip(recorded.devices, silent.devices):
        assert noisy.busy_ms() == quiet.busy_ms()
        assert noisy.default_stream.timeline.intervals == (quiet.default_stream.timeline.intervals)


def test_cost_memos_are_bounded_and_transparent():
    """10 000 distinct shapes: at most ``limit`` entries kept, every cost exact."""
    machine = Machine.cpu_gpu()
    gpu, link = machine.gpu, machine.link
    rng = np.random.default_rng(7)
    flops = rng.uniform(1.0e5, 5.0e8, 10_000).tolist()
    sizes = rng.permutation(np.arange(1, 200_000))[:10_000].tolist()
    for flop, size in zip(flops, sizes):
        duration = gpu.kernel_ms(flop, float(size))
        assert link.transfer_ms(size) == link.spec.transfer_ms(size)
        # A device that has never seen the shape computes it from scratch.
        assert duration == Device(gpu.spec).kernel_ms(flop, float(size))
        # A repeated shape is served from the memo (the memoised float itself).
        assert gpu.kernel_ms(flop, float(size)) is duration
    assert 0 < len(gpu._cost_cache) <= device_module._COST_CACHE_LIMIT < 10_000
    assert 0 < len(link._transfer_ms_cache) <= link_module._TRANSFER_CACHE_LIMIT < 10_000
    # The shapes a serving run repeats stay memoised across the overflow resets.
    repeated = gpu.kernel_ms(2.0e6, 4096.0)
    assert gpu.kernel_ms(2.0e6, 4096.0) is repeated


def tracked_objects_gained(warm_up, work):
    """Objects ``work()`` leaves tracked by the cyclic garbage collector.

    Two full collections on each side: an exact tuple is untracked once its
    elements are, and one pass can visit a tuple before a fresh one it holds.
    """
    warm_up()
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    work()
    gc.collect()
    gc.collect()
    return len(gc.get_objects()) - before


def test_distinct_kernel_shapes_add_no_tracked_objects():
    """10 000 kernel shapes: the cost memo holds durations, nothing to walk."""
    machine = Machine.cpu_gpu()
    machine.initialize_gpu()

    def launch(first, count):
        for i in range(first, first + count):
            machine.launch_kernel(machine.gpu, "k", 1.0e6 + i, 1.0e3 + i)

    # As one record per shape the memo kept 1 808 (10 000 past its last reset).
    assert tracked_objects_gained(partial(launch, 0, 10), partial(launch, 10, 10_000)) < 100


@pytest.mark.parametrize("policy", ["lru", "lfu", "degree"])
def test_cache_churn_adds_no_tracked_objects(policy):
    """40 rounds of put, probe and invalidate: a live entry is an exact tuple."""
    machine = Machine.cpu_gpu()
    machine.initialize_gpu()
    store = DeviceResidentCache(
        machine, machine.gpu, "embedding", make_eviction_policy(policy), 4096 * 64, 1e12,
        weight_of=lambda key: float(key % 97),
    )
    rng = np.random.default_rng(11)

    def churn(rounds):
        for _ in range(rounds):
            now = float(machine.host_time_ms)
            store.put_many(rng.choice(20_000, 512, replace=False).tolist(), True, [now] * 512, 64)
            store.probe_many(rng.choice(20_000, 64, replace=False).tolist(), [now] * 64)
            store.invalidate(rng.choice(20_000, 128, replace=False).tolist())

    # As one object per live entry the store kept about 4 000.
    assert tracked_objects_gained(partial(churn, 1), partial(churn, 40)) < 100
    assert len(store) > 3_000


def objects_held(value):
    """``value`` and every object reachable from it through the collector's
    referents: what one cached row keeps alive besides its entry tuple."""
    seen = {id(value)}
    stack = [value]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return len(seen)


def test_cached_sample_and_embedding_rows_are_one_untracked_object():
    """A cached row is one packed record: nothing for the collector to walk,
    and one object per row (a tuple of four row arrays held five)."""
    rng = np.random.default_rng(5)
    machine = Machine.cpu_gpu()
    sampler = TemporalNeighborSampler(random_stream(rng, num_events=600, num_nodes=200), seed=5)
    cache = ModelCache(
        machine, machine.gpu, kinds=("embedding", "sample"), capacity_mb=8.0, staleness_ms=1e12
    )
    nodes = np.arange(200, dtype=np.int64)
    times = np.full(200, 1000.0)
    with machine.activate():
        for k in (1, 4, 10):
            cache.sample(sampler, nodes, times, k)
        cache.sample(sampler, nodes[::-1], times, 10)
        cache.store_embeddings(nodes, times, rng.standard_normal((200, 32)).astype(np.float32))
    gc.collect()
    for store in (cache.samples, cache.embeddings):
        assert len(store) == 200
        values = [entry[0] for entry in store._entries.values()]
        assert [gc.is_tracked(value) for value in values] == [False] * len(values)
        assert [objects_held(value) for value in values] == [1] * len(values)


def python_calls(action, under="", events=("call",)):
    """Python-level ``call`` events one ``action()`` makes (itself included).

    With ``under`` set, only frames whose code file starts with it count;
    ``events=("call", "c_call")`` counts calls of C functions too.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in events and frame.f_code.co_filename.startswith(under):
            calls += 1

    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def memory_run_alloc_free(machine):
    with machine.memory_run(machine.gpus[0], "t") as (alloc, free):
        free(alloc(4096))


@functools.lru_cache(maxsize=None)
def loaded_machine(intervals):
    """A 1xA100 machine with ``intervals`` busy intervals on its GPU, split
    over two overlapping streams, and as many on its PCIe link's one stream.
    """
    machine = Machine("1xA100")
    gpu = machine.gpus[0]
    gpu.streams.default.reserve_run(0.0, 0.01, [0.004] * (intervals // 2), False)
    gpu.streams.stream("worker").reserve_run(0.002, 0.01, [0.006] * (intervals // 2), False)
    machine.links[0].streams.default.reserve_run(0.0, 0.01, [0.003] * intervals, False)
    return machine


#: ``query -> (machine, intervals) -> busy``: the windowed reads a run's
#: report closes with, over a window that holds all but a few of the
#: ``intervals`` of :func:`loaded_machine`.  The GPU's is a two-stream
#: union, the link's a one-stream merged sweep.
WINDOWED_BUSY = {
    "Device.utilization": lambda m, n: m.gpus[0].utilization(0.5, n * 0.005 - 0.5),
    "Link.busy_ms": lambda m, n: m.links[0].busy_ms(0.5, n * 0.01 - 0.5),
}


#: ``call -> (ceiling, action on a warm machine m / cluster c)``.  A count,
#: not a timing: what one charge costs the host in Python calls, recording
#: on.  The scalar seam is ``_charge`` -> ``_emit`` -> ``check_event``; the
#: run primitive checks its kind once and appends its rows in C, so a run
#: costs no call per kernel.
HOST_COST_CEILINGS = {
    "launch_kernel": (10, lambda m, c: m.launch_kernel(m.gpus[0], "k", 1e6, 64e3)),
    "host_work": (10, lambda m, c: m.host_work("h", 0.02)),
    "transfer non-blocking": (
        17, lambda m, c: m.transfer(m.cpu, m.gpus[0], 4096, non_blocking=True)),
    "transfer blocking": (15, lambda m, c: m.transfer(m.cpu, m.gpus[0], 4096)),
    "transfer peer": (15, lambda m, c: m.transfer(m.gpus[0], m.gpus[1], 4096)),
    "launch_kernels x8": (8, lambda m, c: m.launch_kernels(m.gpus[0], "k", 8, 1e6, 64e3)),
    "alloc + free": (9, lambda m, c: m.free(m.gpus[0], m.alloc(m.gpus[0], 4096, "t"))),
    # Opening and closing a run is ~9 calls; it breaks even at two alloc + free pairs.
    "memory_run alloc + free": (14, lambda m, c: memory_run_alloc_free(m)),
    "cluster gpu -> gpu": (
        39, lambda m, c: c.transfer(0, c.nodes[0].gpus[0], 1, c.nodes[1].gpus[0], 4096)),
    # A window over 20 000 intervals is one numpy sweep: no call per interval.
    "Device.utilization windowed, 20 000 intervals": (
        15, lambda m, c: WINDOWED_BUSY["Device.utilization"](loaded_machine(20_000), 20_000)),
    "Link.busy_ms windowed, 20 000 intervals": (
        13, lambda m, c: WINDOWED_BUSY["Link.busy_ms"](loaded_machine(20_000), 20_000)),
}


@pytest.mark.parametrize("call", sorted(HOST_COST_CEILINGS))
def test_python_calls_per_charge_stay_bounded(call):
    ceiling, action = HOST_COST_CEILINGS[call]
    machine = Machine("4xA100-nvlink")
    cluster = Cluster("2n-2xA100-eth")
    for node in (machine, *cluster.nodes):
        for gpu in node.gpus:
            node.initialize_gpu(device=gpu)
    action(machine, cluster)  # the cost, route and transfer-time memos are warm
    calls = python_calls(partial(action, machine, cluster))
    assert calls <= ceiling, f"{call}: {calls} Python calls, ceiling {ceiling}"


@pytest.mark.parametrize("query", sorted(WINDOWED_BUSY))
def test_windowed_busy_makes_no_call_per_interval(query):
    """Python and C calls alike: a Python merge loop makes a ``max`` and a
    ``min`` call per interval, so ten times the intervals shows."""
    counts = [
        python_calls(partial(WINDOWED_BUSY[query], loaded_machine(n), n), events=("call", "c_call"))
        for n in (2_000, 20_000)
    ]
    assert counts[0] == counts[1], f"{query}: {counts} calls at 2 000 and 20 000 intervals"


#: Operator ceilings count only ``src/repro`` frames, so numpy's own Python
#: frames -- which vary across numpy versions -- do not move them.
REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: ``op -> ((numeric, shape) ceiling, call on x (3, 4), w (4, 5), linear
#: weight (5, 4), bias (5,), row indices)``: the ``repro`` frames one operator
#: costs on a warm 1xA6000 machine, kernel launch included.
OP_COST_CEILINGS = {
    "matmul": ((18, 20), lambda x, w, lw, b, idx: ops.matmul(x, w)),
    "linear": ((15, 16), lambda x, w, lw, b, idx: ops.linear(x, lw, b)),
    "add (tensor)": ((18, 18), lambda x, w, lw, b, idx: ops.add(x, x)),
    "mul (scalar)": ((18, 17), lambda x, w, lw, b, idx: ops.mul(x, 2.0)),
    "sigmoid": ((17, 17), lambda x, w, lw, b, idx: ops.sigmoid(x)),
    "reduce_sum": ((19, 23), lambda x, w, lw, b, idx: ops.reduce_sum(x, axis=1)),
    "softmax": ((16, 17), lambda x, w, lw, b, idx: ops.softmax(x)),
    "concat": ((17, 20), lambda x, w, lw, b, idx: ops.concat([x, x], axis=0)),
    "gather_rows": ((15, 16), lambda x, w, lw, b, idx: ops.gather_rows(x, idx)),
    "reshape": ((4, 9), lambda x, w, lw, b, idx: ops.reshape(x, (4, 3))),
}


@pytest.mark.parametrize("backend", ["numeric", "shape"])
@pytest.mark.parametrize("op", sorted(OP_COST_CEILINGS))
def test_python_calls_per_operator_stay_bounded(op, backend):
    ceilings, action = OP_COST_CEILINGS[op]
    machine = Machine("1xA6000", backend=backend)
    machine.initialize_gpu()
    with machine.activate():
        shapes = ((3, 4), (4, 5), (5, 4), (5,))
        operands = [Tensor(np.ones(shape, dtype=np.float32), machine.gpu) for shape in shapes]
        call = partial(action, *operands, np.array([0, 2]))
        call()  # the kernel-cost and placeholder memos are warm
        calls = python_calls(call, REPRO_ROOT)
    ceiling = ceilings[backend == "shape"]
    assert calls <= ceiling, f"{op} ({backend}): {calls} Python calls, ceiling {ceiling}"


CACHE_KEYS = 512

#: ``store call -> {policy: Python calls per key (per batch for the probe)}`` on a
#: warm store that holds exactly ``CACHE_KEYS`` rows.  A key batch is one run
#: (one memory run, one policy settle, one pass zipping the rows), so only
#: what a key needs itself is left per key: the policy's say and the pool.
CACHE_COST_CEILINGS = {
    "put_many, every key evicting": {"lru": 9.0, "lfu": 10.0, "degree": 10.0},
    "probe_many, every key a hit, per batch": {"lru": 8.0, "degree": 8.0},
    "invalidate": {"lru": 3.1, "lfu": 3.1, "degree": 3.1},
}


@pytest.mark.parametrize("call,policy", [
    (call, policy) for call, ceilings in sorted(CACHE_COST_CEILINGS.items()) for policy in ceilings
])
def test_python_calls_per_cache_key_stay_bounded(call, policy):
    machine = Machine.cpu_gpu()
    machine.initialize_gpu()
    store = DeviceResidentCache(
        machine, machine.gpu, "embedding", make_eviction_policy(policy), CACHE_KEYS * 64, 1e12,
        weight_of=lambda key: float(key % 97),
    )
    resident, fresh = list(range(CACHE_KEYS)), list(range(CACHE_KEYS, 2 * CACHE_KEYS))
    times = [0.0] * CACHE_KEYS
    assert store.put_many(resident, True, times, 64) == CACHE_KEYS
    store.flush_charges()
    if call.startswith("put_many"):
        calls = python_calls(partial(store.put_many, fresh, True, times, 64)) / CACHE_KEYS
        assert store.stats.evictions == CACHE_KEYS
    elif call.startswith("probe_many"):
        calls = python_calls(partial(store.probe_many, resident, times))
        assert store.stats.hits == CACHE_KEYS
    else:
        calls = python_calls(partial(store.invalidate, resident)) / CACHE_KEYS
        assert store.stats.invalidations == CACHE_KEYS
    ceiling = CACHE_COST_CEILINGS[call][policy]
    assert calls <= ceiling, f"{call} under {policy}: {calls} Python calls, ceiling {ceiling}"


def assert_index_matches_reference(sampler, reference_adjacency):
    """The CSR slices of ``sampler`` equal the per-node reference arrays."""
    offsets = sampler._offsets
    assert len(offsets) == len(reference_adjacency) + 1
    for node, ref_entry in enumerate(reference_adjacency):
        row = slice(offsets[node], offsets[node + 1])
        fast_entry = (sampler._times[row], sampler._neighbors[row], sampler._events[row])
        for fast_array, ref_array in zip(fast_entry, ref_entry):
            assert fast_array.dtype == ref_array.dtype
            assert np.array_equal(fast_array, ref_array)
    assert np.array_equal(sampler.total_degrees, [len(entry[0]) for entry in reference_adjacency])
    assert not sampler.total_degrees.flags.writeable


def assert_samples_match_reference(fast, reference_adjacency, reference_rng, nodes, times, k):
    """One query on ``fast`` against the reference loop: the four output
    arrays, the generator state and the host charge -- the cost model over
    the reference's own cutoffs, charged once, on a fresh machine."""
    machine = Machine.cpu_gpu()
    with machine.activate():
        sample = fast.sample(nodes, times, k)
    ids, ntimes, events, mask, degrees = reference_sample(
        reference_adjacency, reference_rng, fast.uniform, nodes, times, k
    )
    assert machine.event_count == 1
    assert machine.host_time_ms == float(target_costs_us(degrees, k).sum() * 1e-3)
    for fast_array, ref_array in zip(
        (sample.neighbor_ids, sample.neighbor_times, sample.event_indices, sample.mask),
        (ids, ntimes, events, mask),
    ):
        assert fast_array.dtype == ref_array.dtype
        assert np.array_equal(fast_array, ref_array)
    # Both generators must have consumed identical draws.
    assert fast._rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_sampler_matches_reference_slow_path(seed):
    rng = np.random.default_rng(seed)
    stream = random_stream(rng)
    reference_adjacency = reference_build_index(stream)
    max_degree = max(len(entry[0]) for entry in reference_adjacency)
    for uniform in (True, False):
        fast = TemporalNeighborSampler(stream, uniform=uniform, seed=seed)
        assert_index_matches_reference(fast, reference_adjacency)
        reference_rng = np.random.default_rng(seed)
        # Batch sizes on both sides of the batched-draw threshold, and a k
        # larger than every degree (all rows padded, no draw at all).
        for batch, k in ((40, 3), (40, 7), (0, 3), (1, 3), (2000, 3), (2000, 7),
                         (40, max_degree + 1)):
            nodes = rng.integers(0, stream.num_nodes, size=batch)
            times = rng.uniform(0.0, 1200.0, size=batch)
            # Query exactly at event times: the cutoff is strict.
            times[::4] = rng.choice(stream.timestamps, size=len(times[::4]))
            assert_samples_match_reference(
                fast, reference_adjacency, reference_rng, nodes, times, k
            )


@pytest.mark.parametrize("uniform", [True, False])
def test_sampler_matches_reference_on_tied_timestamps_and_empty_stream(uniform):
    rng = np.random.default_rng(41)
    # 200 events on 12 distinct timestamps: ties inside every node's row.
    tied = EventStream(
        src=rng.integers(0, 6, size=200),
        dst=rng.integers(0, 6, size=200),
        timestamps=np.sort(rng.integers(0, 12, size=200)).astype(np.float64),
        num_nodes=6,
    )
    empty = EventStream(
        src=np.empty(0, dtype=np.int64),
        dst=np.empty(0, dtype=np.int64),
        timestamps=np.empty(0, dtype=np.float64),
        num_nodes=4,
    )
    for stream in (tied, empty):
        fast = TemporalNeighborSampler(stream, uniform=uniform, seed=5)
        reference_adjacency = reference_build_index(stream)
        assert_index_matches_reference(fast, reference_adjacency)
        reference_rng = np.random.default_rng(5)
        for batch in (1, 30, 300):
            nodes = rng.integers(0, stream.num_nodes, size=batch)
            times = rng.integers(-1, 14, size=batch).astype(np.float64)
            assert_samples_match_reference(
                fast, reference_adjacency, reference_rng, nodes, times, 4
            )


def test_sampler_shape_backend_draws_and_ids_match_numeric():
    rng = np.random.default_rng(43)
    stream = random_stream(rng, num_events=600)
    nodes = rng.integers(0, stream.num_nodes, size=300)
    times = rng.uniform(0.0, 1200.0, size=300)
    samplers, samples, clocks = {}, {}, {}
    for backend in ("numeric", "shape"):
        machine = Machine.cpu_gpu(backend=backend)
        samplers[backend] = TemporalNeighborSampler(stream, uniform=True, seed=43)
        with machine.activate():
            samples[backend] = samplers[backend].sample(nodes, times, 5)
        clocks[backend] = machine.host_time_ms
    numeric, shape = samples["numeric"], samples["shape"]
    assert np.array_equal(shape.neighbor_ids, numeric.neighbor_ids)
    assert np.array_equal(shape.mask, numeric.mask)
    assert clocks["shape"] == clocks["numeric"] > 0.0
    assert (
        samplers["shape"]._rng.bit_generator.state
        == samplers["numeric"]._rng.bit_generator.state
    )
    for payload in (shape.neighbor_times, shape.event_indices):
        assert is_placeholder(payload)
        assert payload.shape == (300, 5)
    assert shape.neighbor_times.dtype == numeric.neighbor_times.dtype
    assert shape.event_indices.dtype == numeric.event_indices.dtype
    assert numeric.neighbor_times.any() and numeric.event_indices.any()


def test_large_uniform_batch_makes_one_rng_call():
    """The perf guard, as a count: a 1 600-row ``k = 20`` batch in the Floyd
    regime costs one ``integers`` call and no per-row ``choice``."""
    rng = np.random.default_rng(47)
    stream = random_stream(rng, num_events=4000, num_nodes=40)
    sampler = TemporalNeighborSampler(stream, uniform=True, seed=47)
    spy = sampler._rng = Mock(wraps=sampler._rng)
    nodes = rng.integers(0, stream.num_nodes, size=1600)
    times = rng.uniform(500.0, 1200.0, size=1600)
    sample = sampler.sample(nodes, times, 20)
    assert sample.mask.all()
    assert (spy.choice.call_count, spy.integers.call_count) == (0, 1)
    # A handful of rows is cheaper row by row: no batched draw.
    spy.reset_mock()
    sampler.sample(nodes[:3], times[:3], 20)
    assert (spy.choice.call_count, spy.integers.call_count) == (3, 0)


@pytest.mark.parametrize("uniform", [True, False])
def test_sampler_matches_reference_across_repeated_queries(uniform):
    """The sampler keeps its last query's bisects and charge and reuses them
    for the next call that asks for equal values.  Every call here is checked
    against the reference loop, which keeps nothing: a repeat with the same
    arrays or with equal new ones, the kept arrays mutated in place, another
    ``k``, a shorter prefix, ``-0.0`` for ``0.0``, and a NaN or an
    out-of-range id right after a kept query (refused, nothing moved)."""
    rng = np.random.default_rng(59)
    stream = random_stream(rng, num_events=600)
    reference_adjacency = reference_build_index(stream)
    fast = TemporalNeighborSampler(stream, uniform=uniform, seed=59)
    reference_rng = np.random.default_rng(59)
    nodes = rng.integers(0, stream.num_nodes, size=40)
    times = rng.uniform(0.0, 1200.0, size=40)

    def check(nodes, times, k=3):
        assert_samples_match_reference(fast, reference_adjacency, reference_rng, nodes, times, k)

    def refused(nodes, times, message):
        state = fast._rng.bit_generator.state
        machine = Machine.cpu_gpu()
        with machine.activate(), pytest.raises(ValueError, match=message):
            fast.sample(nodes, times, 3)
        assert fast._rng.bit_generator.state == state
        assert (machine.event_count, machine.host_time_ms) == (0, 0.0)

    check(nodes, times)
    check(nodes, times)
    check(nodes.copy(), times.copy())
    nodes[::5] = (nodes[::5] + 1) % stream.num_nodes
    check(nodes, times)
    times[1::7] += 50.0
    check(nodes, times)
    check(nodes, times, 7)
    check(nodes, times, 3)
    check(nodes[:20], times[:20])
    check(nodes, times)
    zeros = np.zeros(len(nodes))
    check(nodes, zeros)
    check(nodes, -zeros)
    check(nodes, times)
    kept = times[6]
    times[6] = np.nan  # in place, in the array the kept query came from
    refused(nodes, times, "query time of row 6 is NaN")
    times[6] = kept
    check(nodes, times)
    refused(np.where(np.arange(len(nodes)) == 9, stream.num_nodes, nodes), times,
            f"node id {stream.num_nodes} ")
    check(nodes, times)


def test_sampler_reuses_only_an_equal_last_query():
    """The perf guard, by identity: an equal repeat is served from the kept
    query (no bisect, no cost gather), anything else is recomputed, and the
    per-``k`` cost tables stay bounded."""
    rng = np.random.default_rng(61)
    stream = random_stream(rng, num_events=600)
    sampler = TemporalNeighborSampler(stream, uniform=True, seed=61)
    nodes = rng.integers(0, stream.num_nodes, size=30)
    times = rng.uniform(0.0, 1200.0, size=30)
    query = sampler._query(nodes, times, 4)
    assert sampler._query(nodes.copy(), times.copy(), 4) is query
    assert sampler._query(nodes, times, 5) is not query
    query = sampler._query(nodes, times, 4)
    times[0] += 1.0
    assert sampler._query(nodes, times, 4) is not query
    for k in range(1, 2 * _PER_K_LIMIT + 2):
        sampler.sample(nodes, times, k)
        assert len(sampler._per_k) <= _PER_K_LIMIT


@pytest.mark.parametrize("nodes, message", [
    (np.array([3.7, 1.0]), "node ids must be integers, not float64"),
    (np.array([True, False]), "node ids must be integers, not bool"),
    (np.arange(6).reshape(2, 3), "nodes must be a 1-D array of node ids, not 2-D"),
    (np.array(3), "nodes must be a 1-D array of node ids, not 0-D"),
])
def test_sampler_refuses_non_integer_and_non_1d_node_ids(nodes, message):
    """A float id used to be truncated (3.7 sampled node 3), a boolean one
    read as 0/1, a 2-D query failed inside the draw and a 0-d one in
    ``len()``: each is refused before anything is drawn or charged."""
    sampler = TemporalNeighborSampler(random_stream(np.random.default_rng(53)), uniform=True)
    state = sampler._rng.bit_generator.state
    machine = Machine.cpu_gpu()
    with machine.activate(), pytest.raises(ValueError, match=message):
        sampler.sample(nodes, np.full(nodes.shape, 2000.0), 4)
    assert sampler._rng.bit_generator.state == state
    assert (machine.event_count, machine.host_time_ms) == (0, 0.0)
    # An empty query has no ids to be wrong, whatever its dtype.
    assert sampler.sample(np.array([]), np.array([]), 4).num_targets == 0


def test_total_degree_refuses_ids_outside_the_stream():
    """``total_degree(-1)`` used to return the last node's degree."""
    stream = random_stream(np.random.default_rng(53))
    sampler = TemporalNeighborSampler(stream)
    for bad in (-1, stream.num_nodes):
        with pytest.raises(ValueError, match=f"node id {bad} is outside"):
            sampler.total_degree(bad)
    assert sampler.total_degree(stream.num_nodes - 1) == sampler.total_degrees[-1]


@pytest.mark.parametrize("bad", [-1, 25])
def test_sampler_rejects_node_ids_outside_the_stream(bad):
    """A negative id used to wrap around to the last node's neighbourhood."""
    stream = random_stream(np.random.default_rng(53))
    sampler = TemporalNeighborSampler(stream, uniform=False)
    with pytest.raises(ValueError, match=f"node id {bad} "):
        sampler.sample(np.array([3, bad, 7]), np.full(3, 2000.0), 4)
    assert sampler.sample(np.array([0, 24]), np.full(2, 2000.0), 4).num_targets == 2


def test_most_recent_sampling_matches_reference():
    rng = np.random.default_rng(7)
    stream = random_stream(rng)
    fast = TemporalNeighborSampler(stream, uniform=False, seed=7)
    reference_adjacency = reference_build_index(stream)
    reference_rng = np.random.default_rng(7)
    nodes = rng.integers(0, stream.num_nodes, size=60)
    times = rng.uniform(0.0, 1200.0, size=60)
    assert_samples_match_reference(fast, reference_adjacency, reference_rng, nodes, times, 5)


# -- profile analysis: bisected window queries and the event index ----------
#
# Reference slow paths: verbatim copies of ``repro.core.utilization`` as it
# stood before the analysis was made linear (full scan of every merged busy
# run per grid cell, one event-log rescan per view).


def reference_busy_intervals(profile, device_name, include_warmup):
    intervals = []
    for event in profile.events:
        if event.resource != device_name:
            continue
        if event.kind == KERNEL or (event.kind == WARMUP and include_warmup):
            if event.duration_ms > 0:
                intervals.append((event.start_ms, event.end_ms))
    intervals.sort()
    merged = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def reference_clip_overlap(intervals, lo, hi):
    total = 0.0
    for start, end in intervals:
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            total += overlap
    return total


def reference_utilization_report(profile, device_kind="gpu", bin_ms=None, include_warmup=False):
    snapshot = profile.device(device_kind)
    if snapshot is None:
        return UtilizationReport(
            device=device_kind, average=0.0, peak=0.0, series=(), busy_ms=0.0,
            idle_ms=profile.elapsed_ms, longest_idle_gap_ms=profile.elapsed_ms,
        )
    intervals = reference_busy_intervals(profile, snapshot.name, include_warmup)
    window = max(profile.elapsed_ms, 1e-9)
    if bin_ms is None:
        bin_ms = window / 40.0
    bin_ms = max(bin_ms, 1e-6)

    series = []
    t = profile.start_ms
    while t < profile.end_ms:
        hi = min(t + bin_ms, profile.end_ms)
        busy = reference_clip_overlap(intervals, t, hi)
        series.append(
            UtilizationPoint(time_ms=t - profile.start_ms, utilization=busy / max(hi - t, 1e-9))
        )
        t += bin_ms

    busy_total = reference_clip_overlap(intervals, profile.start_ms, profile.end_ms)
    longest_gap = 0.0
    cursor = profile.start_ms
    for start, end in intervals:
        start = max(start, profile.start_ms)
        if start > cursor:
            longest_gap = max(longest_gap, start - cursor)
        cursor = max(cursor, min(end, profile.end_ms))
    longest_gap = max(longest_gap, profile.end_ms - cursor)

    return UtilizationReport(
        device=snapshot.name,
        average=busy_total / window,
        peak=max((p.utilization for p in series), default=0.0),
        series=tuple(series),
        busy_ms=busy_total,
        idle_ms=window - busy_total,
        longest_idle_gap_ms=longest_gap,
    )


def reference_cpu_busy_gpu_idle_fraction(profile):
    gpu = profile.device("gpu")
    cpu = profile.device("cpu")
    if gpu is None or cpu is None or profile.elapsed_ms <= 0:
        return 0.0
    cpu_intervals = reference_busy_intervals(profile, cpu.name, include_warmup=False)
    gpu_intervals = reference_busy_intervals(profile, gpu.name, include_warmup=True)
    samples = 512
    step = profile.elapsed_ms / samples
    count = 0
    for i in range(samples):
        lo = profile.start_ms + i * step
        hi = lo + step
        cpu_busy = reference_clip_overlap(cpu_intervals, lo, hi) > step * 0.5
        gpu_busy = reference_clip_overlap(gpu_intervals, lo, hi) > step * 0.5
        if cpu_busy and not gpu_busy:
            count += 1
    return count / samples


def synthetic_profile(events, start_ms, end_ms, with_gpu=True):
    """A hand-built window: the analysis reads only events and device names."""
    devices = tuple(
        DeviceSnapshot(
            name=f"{kind}0",
            kind=kind,
            peak_gflops=1000.0,
            busy_ms=sum(e.duration_ms for e in events if e.resource == f"{kind}0"),
            flops=0.0,
            peak_memory_bytes=0,
            start_memory_bytes=0,
            end_memory_bytes=0,
        )
        for kind in (("cpu", "gpu") if with_gpu else ("cpu",))
    )
    return Profile(
        start_ms=start_ms,
        end_ms=end_ms,
        rows=tuple(events),
        devices=devices,
        label="synthetic",
    )


def random_profile(seed, with_gpu=True, grid_aligned=False):
    """Seeded window with everything the busy-run merge has to survive:
    kernels overlapped across streams, warm-up inside the window,
    zero-duration events, work straddling both window edges and (with
    ``grid_aligned``) integer endpoints on a 512 ms window, so busy runs
    start and stop exactly on the starvation grid's cell edges.
    """
    rng = np.random.default_rng(seed)
    start_ms = 0.0 if grid_aligned else 100.0
    span = 512.0 if grid_aligned else float(rng.uniform(5.0, 50.0))

    def draw(scale):
        if grid_aligned:
            return float(rng.integers(0, max(2, int(span * scale))))
        return float(rng.uniform(0.0, span * scale))

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    events = []
    regions = (("iteration", "Sampling"), ("iteration", "Attention Layer"), ())
    resources = [("cpu0", ("default",))]
    if with_gpu:
        resources.append(("gpu0", ("default", "copy", "worker")))
    for resource, streams in resources:
        for _ in range(int(rng.integers(50, 200))):
            begin = start_ms - 0.05 * span + draw(1.1)
            duration = 0.0 if rng.integers(0, 8) == 0 else draw(0.01)
            warmup = resource == "gpu0" and rng.integers(0, 12) == 0
            events.append(
                Event(
                    kind=WARMUP if warmup else KERNEL,
                    name="op",
                    resource=resource,
                    start_ms=begin,
                    end_ms=begin + duration,
                    flops=1e6,
                    region=pick(regions),
                    stream=pick(streams),
                )
            )
    for _ in range(int(rng.integers(5, 30))):
        begin = start_ms + draw(1.0)
        kind = pick((TRANSFER, SYNC, ALLOC, MARKER))
        events.append(
            Event(
                kind=kind,
                name="aux",
                resource="pcie" if kind == TRANSFER else "cpu0",
                start_ms=begin,
                end_ms=begin + (draw(0.02) if kind in (TRANSFER, SYNC) else 0.0),
                bytes=int(rng.integers(1, 1 << 20)),
                region=pick(regions),
            )
        )
    shuffled = [events[i] for i in rng.permutation(len(events))]
    return synthetic_profile(shuffled, start_ms, start_ms + span, with_gpu=with_gpu)


def captured_profile(seed, spec="2xA100-pcie"):
    """A real capture: the random scheduler program, warm-up inside the window."""
    machine = Machine.from_spec(spec)
    profiler = Profiler(machine)
    with profiler.capture(f"program-{seed}"):
        drive_random_program(machine, seed, steps=200)
    return profiler.last_profile


ANALYSIS_PROFILES = {
    "overlapped-streams": lambda: random_profile(41),
    "overlapped-streams-2": lambda: random_profile(42),
    "cell-edges": lambda: random_profile(43, grid_aligned=True),
    "no-gpu": lambda: random_profile(44, with_gpu=False),
    "empty-window": lambda: synthetic_profile(random_profile(45).events, 120.0, 120.0),
    "no-events": lambda: synthetic_profile((), 0.0, 10.0),
    "captured-2gpu": lambda: captured_profile(46),
    "captured-1gpu": lambda: captured_profile(47, spec="1xA6000"),
}


@pytest.mark.parametrize("case", sorted(ANALYSIS_PROFILES))
def test_window_queries_match_reference_scan(case):
    profile = ANALYSIS_PROFILES[case]()
    assert cpu_busy_gpu_idle_fraction(profile) == reference_cpu_busy_gpu_idle_fraction(profile)
    # 40 default bins, a width that divides the window, two that do not, and
    # one wider than the window.
    elapsed = profile.elapsed_ms
    for bin_ms in (None, elapsed / 16 or 1.0, elapsed / 7.3 or 1.0, 0.37, elapsed * 3 + 1.0):
        for device_kind in ("gpu", "cpu"):
            for include_warmup in (False, True):
                assert utilization_report(
                    profile, device_kind, bin_ms=bin_ms, include_warmup=include_warmup
                ) == reference_utilization_report(
                    profile, device_kind, bin_ms=bin_ms, include_warmup=include_warmup
                )
    for device in profile.devices:
        for include_warmup in (False, True):
            runs = profile.busy_timeline(device.name, include_warmup)
            assert [(run.start_ms, run.end_ms) for run in runs] == reference_busy_intervals(
                profile, device.name, include_warmup
            )


@pytest.mark.parametrize("case", sorted(ANALYSIS_PROFILES))
def test_indexed_profile_views_match_plain_scans(case):
    profile = ANALYSIS_PROFILES[case]()
    events = profile.events
    kernels = tuple(e for e in events if e.kind == KERNEL)
    transfers = tuple(e for e in events if e.kind == TRANSFER)
    warmups = tuple(e for e in events if e.kind == WARMUP)
    syncs = tuple(e for e in events if e.kind == SYNC)
    assert profile.kernel_count() == len(kernels)
    assert profile.transfer_time_ms() == sum(e.duration_ms for e in transfers)
    assert profile.transfer_bytes() == sum(e.bytes for e in transfers)
    assert profile.warmup_ms() == sum(e.duration_ms for e in warmups)
    assert profile.sync_wait_ms() == sum(e.duration_ms for e in syncs)
    for device in profile.devices:
        durations = [e.duration_ms for e in kernels if e.resource == device.name]
        assert profile.kernel_count(device.name) == len(durations)
        assert profile.kernel_time_ms(device.name) == sum(durations)
        assert profile.mean_kernel_ms(device.name) == (
            sum(durations) / len(durations) if durations else 0.0
        )
        if profile.elapsed_ms > 0:
            busy = device.busy_ms - sum(e.duration_ms for e in warmups if e.resource == device.name)
            assert profile.device_utilization(device.name) == max(
                0.0, min(1.0, busy / profile.elapsed_ms)
            )
    # A fresh Profile over the same rows computes the same statistics.
    copy = replace(profile, label="copy")
    assert copy == replace(profile, label="copy") and copy.rows is profile.rows
    assert copy.kernel_count() == len(kernels) and copy.transfer_bytes() == profile.transfer_bytes()


@pytest.mark.parametrize("case", sorted(ANALYSIS_PROFILES))
def test_profile_views_are_events_built_from_the_window_rows(case):
    """The one view holds ``Event`` values, each equal to its row of ``profile.rows``."""
    profile = ANALYSIS_PROFILES[case]()
    assert profile.events == profile.rows and profile.events is profile.events
    assert all(type(event) is Event for event in profile.events)


@pytest.mark.parametrize("case", sorted(ANALYSIS_PROFILES))
def test_shared_breakdown_equals_standalone_detectors(case):
    profile = ANALYSIS_PROFILES[case]()
    standalone = [
        detect_temporal_dependency(profile),
        detect_workload_imbalance(profile),
        detect_data_movement(profile),
        detect_gpu_warmup(profile),
    ]
    standalone.sort(key=lambda f: -f.severity)
    report = analyze_profile(profile)
    assert report.findings == tuple(standalone)
    # The starvation evidence is the reference scan's number.
    assert report.finding(WORKLOAD_IMBALANCE).evidence["cpu_busy_gpu_idle"] == (
        reference_cpu_busy_gpu_idle_fraction(profile)
    )


def _kernels(resource, spans, stream="default", kind=KERNEL):
    return [
        Event(kind, "op", resource, start, end, region=("iteration", "Sampling"), stream=stream)
        for start, end in spans
    ]


def _many_kernels():
    rng = np.random.default_rng(9)
    starts = np.cumsum(rng.uniform(0.0, 0.01, 10_000))
    spans = list(zip(starts.tolist(), (starts + rng.uniform(0.0, 0.02, 10_000)).tolist()))
    return _kernels("gpu0", spans[0::2]) + _kernels("gpu0", spans[1::2], "worker")


#: ``name -> rows on gpu0``: what the profiler's busy-run merge must survive
#: beyond :data:`ANALYSIS_PROFILES`, compared against the old merge loop.
BUSY_RUN_INPUTS = {
    "touching across streams": lambda: (
        _kernels("gpu0", [(0.0, 0.1), (0.2, 0.5)])
        + _kernels("gpu0", [(0.1, 0.2), (0.5, 0.6)], "worker")
    ),
    "nested and out of order": lambda: (
        _kernels("gpu0", [(3.0, 4.0), (0.0, 10.0), (2.0, 2.5)])
        + _kernels("gpu0", [(9.0, 12.0), (12.5, 13.0)], "worker")
    ),
    "zero-length only": lambda: _kernels("gpu0", [(1.0, 1.0), (2.0, 2.0)]),
    "integer endpoints": lambda: (
        _kernels("gpu0", [(0, 3), (3, 5), (7, 7), (8, 9)])
        + _kernels("gpu0", [(2, 4)], "worker")
        + _kernels("gpu0", [(9, 11)], kind=WARMUP)
    ),
    "no kernels": lambda: [],
    "10 000 kernels on two streams": _many_kernels,
}


@pytest.mark.parametrize("case", sorted(BUSY_RUN_INPUTS))
def test_busy_timeline_runs_match_the_old_merge(case):
    events = BUSY_RUN_INPUTS[case]()
    profile = synthetic_profile(events, 0.0, max((e.end_ms for e in events), default=1.0))
    for include_warmup in (False, True):
        runs = [(run.start_ms, run.end_ms) for run in profile.busy_timeline("gpu0", include_warmup)]
        want = reference_busy_intervals(profile, "gpu0", include_warmup)
        assert runs == want
        assert all(type(value) is float for run in runs for value in run)


def test_timeline_from_intervals_keeps_endpoints_and_rejects_overlap():
    pairs = [(0.1, 0.30000000000000004), (0.30000000000000004, 0.7), (0.9, 0.9)]
    timeline = Timeline.from_intervals("runs", pairs)
    assert [(i.start_ms, i.end_ms) for i in timeline] == pairs
    assert timeline.busy_ms() == reference_busy_ms(list(timeline))
    assert union_busy_ms([timeline]) == reference_union_busy_ms([timeline])
    assert timeline.busy_ms(0.2, 0.8) == reference_clip_overlap(pairs, 0.2, 0.8)
    with pytest.raises(ValueError):
        Timeline.from_intervals("bad", [(0.0, 2.0), (1.0, 3.0)])


def test_profile_analysis_stays_linear_in_busy_runs():
    """Coarse budget: with 50 000 busy runs per device the old analysis took
    ~20 s on the reference box (each of 512 grid cells scanned every run);
    bisected cells take ~0.3 s.  The bound sits several times away from
    both, so the shared box cannot flake it and a quadratic relapse cannot
    pass it.
    """
    runs = 50_000
    sampling = ("iteration", "Sampling")
    attention = ("iteration", "Attention Layer")
    events = []
    for index in range(runs):
        begin = index * 0.01
        events.append(Event(KERNEL, "host", "cpu0", begin, begin + 0.004, region=sampling))
        events.append(Event(KERNEL, "gemm", "gpu0", begin + 0.005, begin + 0.008, region=attention))
    profile = synthetic_profile(events, 0.0, runs * 0.01)
    assert len(profile.busy_timeline("gpu0")) == runs
    started = time.perf_counter()
    report = analyze_profile(replace(profile, label="cold index"))
    elapsed = time.perf_counter() - started
    assert len(report.findings) == 4
    assert elapsed < 2.0
