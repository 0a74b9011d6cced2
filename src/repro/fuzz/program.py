"""Random operator programs and their execution engine.

A *program* is a list of plain-dict ops with **concrete** parameters
(device indices, stream names, byte counts, millisecond durations), drawn
once by :func:`draw_program` and then replayable without the RNG.  Two
properties make the greedy shrinker sound:

* **Any subsequence of any program is valid.**  Resource references resolve
  modulo the config's actual complement (device/node indices wrap), and ops
  that reference the *result* of an earlier op -- ``free`` names the
  ``alloc`` op that produced its allocation, ``wait``/``event_sync`` name a
  ``record`` op -- degrade to no-ops when the referenced op was dropped or
  did not execute.
* **Any program is valid under any config.**  Cluster ops no-op without a
  cluster, cache ops no-op without a cache, the serving episode no-ops
  without a serving config -- so the shrinker may simplify the config and
  the op list independently.

Every op kind is one row of :data:`OPS` -- its palette weight, the config
field it needs, how it is drawn, the simulator call it makes, and what the
differential mappers do with it.  :func:`draw_program`, :meth:`Execution.run`,
the mappers and reproducer loading all read that table; adding an op is
adding a row.

The executor (:class:`Execution`) runs a program against a config and
checks the *online* invariants -- host/node clocks never move backwards,
memory pools never go negative, ``synchronize`` really drains -- after
every single op; structural and differential invariants live in
:mod:`repro.fuzz.invariants`.

The ``rewind`` op is deliberate fault injection for the harness's own
tests: it forces a machine's host cursor backwards, which no public API
allows, so the monotone-clock invariant must trip.  The generator only
emits it when asked (``fault_rate > 0``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cache.policy import make_eviction_policy
from ..cache.store import DeviceResidentCache, cache_admin_ms
from ..hw.cluster import Cluster
from ..hw.machine import Machine
from .config import FuzzConfig

Op = Dict[str, Any]

STREAM_NAMES = ("default", "s1", "s2")


class InvariantViolation(AssertionError):
    """One global contract broken by a fuzz case."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message


@dataclass(frozen=True)
class OpSpec:
    """One row of the op vocabulary (``OPS``)."""

    #: Copies of the kind in the generator's palette (0 = never drawn).
    weight: int
    #: The config field (``"cluster"``, ``"cache"``, ``"serving"``) the op
    #: requires, if any; without it the op is not drawn and executes as a no-op.
    needs: Optional[str]
    #: ``draw(rng, state)`` -> concrete JSON parameters; ``state`` has the slot
    #: ``index``, its pre-drawn ``node`` and the cache ops' shared ``event_clock``.
    draw: Callable[[random.Random, Any], Op]
    #: ``apply(execution, index, op)`` -> the simulator call.
    apply: Callable[["Execution", int, Op], None]
    #: The op as the bare node machine replays it in the 1-node-cluster
    #: differential (``None`` = unchanged).
    bare: Optional[Callable[[Op], Op]] = None
    #: A planted contract break (harness self-test).
    fault: bool = False


# -- the op table -----------------------------------------------------------

#: kind -> spec, in palette order (weights tuned so allocation, stream and
#: transfer machinery all get exercised in a ~40-op program).  Insertion
#: order and every draw's RNG consumption fix what each campaign seed draws.
OPS: Dict[str, OpSpec] = {}

#: Stands in for an op a differential mapping erases, keeping op indices
#: (and so generated kernel names) stable.
NOOP: Op = {"op": "noop"}

#: Appended once after the drawn slots when the config has a serving episode.
EPISODE = "serve"


def _op(kind, weight, draw=lambda rng, s: {}, needs=None, bare=None, fault=False):
    def register(apply):
        assert kind not in OPS, kind
        OPS[kind] = OpSpec(weight, needs, draw, apply, bare, fault)
        return apply

    return register


def _draw_stream(rng, s):
    return {"node": s.node, "device": rng.randrange(5), "stream": rng.choice(STREAM_NAMES)}


@_op("kernel", 3, lambda rng, s: {
    **_draw_stream(rng, s),
    "flops": round(rng.uniform(0, 5e7), 3),
    "bytes": round(rng.uniform(0, 1e6), 3),
})
def _kernel(ex, index, op):
    machine = ex._node(op["node"])
    device = ex._device(machine, op["device"])
    machine.launch_kernel(
        device, f"fz_k{index}", op["flops"], op["bytes"],
        stream=device.stream(op["stream"]),
    )


@_op("host", 2, lambda rng, s: {
    "node": s.node, "stream": rng.choice(STREAM_NAMES),
    "ms": round(rng.uniform(0, 2.0), 6),
})
def _host(ex, index, op):
    machine = ex._node(op["node"])
    machine.host_work(f"fz_h{index}", op["ms"], stream=machine.cpu.stream(op["stream"]))


@_op("transfer", 2, lambda rng, s: {
    "node": s.node, "src": rng.randrange(5), "dst": rng.randrange(5),
    "nbytes": rng.randrange(0, 1_000_000),
    "non_blocking": rng.random() < 0.5,
})
def _transfer(ex, index, op):
    machine = ex._node(op["node"])
    src = ex._device(machine, op["src"])
    dst = ex._device(machine, op["dst"])
    if src is dst:
        dst = ex._device(machine, op["dst"] + 1)
    if src is dst:
        return
    machine.transfer(
        src, dst, op["nbytes"],
        name=op.get("name", "memcpy"),
        non_blocking=op["non_blocking"],
    )


@_op("record", 1, _draw_stream)
def _record(ex, index, op):
    machine = ex._node(op["node"])
    device = ex._device(machine, op["device"])
    ex.recorded[index] = (machine, machine.record_event(device.stream(op["stream"])))


@_op("wait", 1, lambda rng, s: {**_draw_stream(rng, s), "ref": rng.randrange(max(s.index, 1))})
def _wait(ex, index, op):
    machine = ex._node(op["node"])
    ref = ex.recorded.get(op["ref"])
    # Cross-machine waits are undefined (streams belong to a node);
    # only honour events recorded on the same node machine.
    if ref is None or ref[0] is not machine:
        return
    device = ex._device(machine, op["device"])
    machine.wait_event(device.stream(op["stream"]), ref[1])


@_op("sync", 1, lambda rng, s: {"node": s.node})
def _sync(ex, index, op):
    machine = ex._node(op["node"])
    machine.synchronize(name=op.get("name", "cuda_sync"))
    ex._check_drained(machine, f"op {index} synchronize")


@_op("stream_sync", 1, _draw_stream)
def _stream_sync(ex, index, op):
    machine = ex._node(op["node"])
    device = ex._device(machine, op["device"])
    machine.stream_synchronize(device.stream(op["stream"]))


@_op("device_sync", 1, lambda rng, s: {"node": s.node, "device": rng.randrange(5)})
def _device_sync(ex, index, op):
    machine = ex._node(op["node"])
    machine.device_synchronize(ex._device(machine, op["device"]))


@_op("event_sync", 1, lambda rng, s: {"node": s.node, "ref": rng.randrange(max(s.index, 1))})
def _event_sync(ex, index, op):
    ref = ex.recorded.get(op["ref"])
    if ref is not None:
        ref[0].event_synchronize(ref[1])


@_op("alloc", 2, lambda rng, s: {
    "node": s.node, "device": rng.randrange(5), "nbytes": rng.randrange(0, 10_000_000),
})
def _alloc(ex, index, op):
    machine = ex._node(op["node"])
    device = ex._device(machine, op["device"])
    ex.live_allocs[index] = (machine, device, machine.alloc(device, op["nbytes"]))


@_op("free", 1, lambda rng, s: {"ref": rng.randrange(max(s.index, 1))})
def _free(ex, index, op):
    ref = ex.live_allocs.pop(op["ref"], None)
    if ref is not None:
        machine, device, alloc_id = ref
        machine.free(device, alloc_id)


@_op("advance", 1, lambda rng, s: {"node": s.node, "ms": round(rng.uniform(0, 1.0), 6)})
def _advance(ex, index, op):
    ex._node(op["node"]).advance_host(op["ms"])


def _draw_nic_transfer(rng, s):
    op = {
        "src_node": rng.randrange(4), "src": rng.randrange(5),
        "dst_node": rng.randrange(4), "dst": rng.randrange(5),
        "nbytes": rng.randrange(0, 2_000_000),
    }
    # Occasionally floor the start time in the past (the cluster
    # must clamp, never schedule before link availability).
    if rng.random() < 0.25:
        op["ready_ms"] = round(rng.uniform(0.0, 3.0), 6)
    return op


# Bare: same-node NIC "transfers" delegate to the plain machine's
# non-blocking transfer, under the cluster API's default label.
@_op("nic_transfer", 2, _draw_nic_transfer, needs="cluster", bare=lambda op: {
    "op": "transfer", "node": 0, "src": op["src"], "dst": op["dst"],
    "nbytes": op["nbytes"], "non_blocking": True, "name": "nic_memcpy",
})
def _nic_transfer(ex, index, op):
    src_node = op["src_node"] % ex.cluster.num_nodes
    dst_node = op["dst_node"] % ex.cluster.num_nodes
    src = ex._device(ex.cluster.nodes[src_node], op["src"])
    dst = ex._device(ex.cluster.nodes[dst_node], op["dst"])
    if src_node == dst_node:
        if src is dst:
            dst = ex._device(ex.cluster.nodes[dst_node], op["dst"] + 1)
        if src is dst:
            return
    ex.cluster.transfer(
        src_node, src, dst_node, dst, op["nbytes"],
        ready_ms=op.get("ready_ms"),
    )


# Bare: aligning the only node to its own frontier is a no-op.
@_op("node_sync", 1, lambda rng, s: {"node": s.node}, needs="cluster", bare=lambda op: NOOP)
def _node_sync(ex, index, op):
    ex.cluster.sync_node(op["node"] % ex.cluster.num_nodes, ex.cluster.time_ms)


# Bare: on one node the barrier is the machine's own synchronize (same
# event name as Cluster.synchronize emits on the node).
@_op("cluster_sync", 1, needs="cluster",
     bare=lambda op: {"op": "sync", "node": 0, "name": "cluster_sync"})
def _cluster_sync(ex, index, op):
    # The cluster-wide barrier: afterwards nothing -- node streams,
    # node links, NIC links -- may still be in flight.
    ex.cluster.synchronize()
    ex._check_nics_drained(f"op {index} cluster synchronize")
    for node in ex.cluster.nodes:
        ex._check_drained(node, f"op {index} cluster synchronize")


def _draw_cache_probe(rng, s):
    count = rng.randrange(1, 12)
    times = []
    for _ in range(count):
        s.event_clock += rng.uniform(0.0, 1.5)
        # ~1 in 8 queries look backwards in event time.
        skew = -rng.uniform(0.0, 4.0) if rng.random() < 0.125 else 0.0
        times.append(round(s.event_clock + skew, 6))
    return {"keys": [rng.randrange(24) for _ in range(count)], "times": times}


@_op("cache_probe", 2, _draw_cache_probe, needs="cache")
def _cache_probe(ex, index, op):
    if ex.scalar_cache:
        for key, now in zip(op["keys"], op["times"]):
            ex.cache.probe(key, now)
    else:
        ex.cache.probe_many(op["keys"], op["times"])


def _draw_cache_put(rng, s):
    s.event_clock += rng.uniform(0.0, 1.5)
    return {
        "key": rng.randrange(24),
        "event_ms": round(s.event_clock, 6),
        # Zero-byte entries are legal (presence rows) and exercise
        # the eviction loop's termination condition.
        "nbytes": rng.randrange(0, 300_000),
    }


@_op("cache_put", 2, _draw_cache_put, needs="cache")
def _cache_put(ex, index, op):
    ex.cache.put(op["key"], f"v{index}", op["event_ms"], op["nbytes"])


def _draw_cache_put_many(rng, s):
    count = rng.randrange(1, 10)
    s.event_clock += rng.uniform(0.0, 1.5)
    return {
        "keys": [rng.randrange(24) for _ in range(count)],
        "times": [round(s.event_clock + i * 0.01, 6) for i in range(count)],
        "nbytes": rng.randrange(1, 4_000),
    }


@_op("cache_put_many", 1, _draw_cache_put_many, needs="cache")
def _cache_put_many(ex, index, op):
    if ex.scalar_cache:
        for key, now in zip(op["keys"], op["times"]):
            ex.cache.put(key, True, now, op["nbytes"])
    else:
        ex.cache.put_many(op["keys"], True, op["times"], op["nbytes"])


@_op("cache_invalidate", 1, needs="cache", draw=lambda rng, s: {
    "keys": [rng.randrange(24) for _ in range(rng.randrange(1, 8))],
})
def _cache_invalidate(ex, index, op):
    ex.cache.invalidate(op["keys"])


@_op("cache_flush", 1, needs="cache")
def _cache_flush(ex, index, op):
    ex.cache.flush()


@_op("cache_charges", 1, needs="cache")
def _cache_charges(ex, index, op):
    ex.cache.flush_charges()


@_op("noop", 0)
def _noop(ex, index, op):
    pass


@_op("rewind", 0, lambda rng, s: {"node": s.node, "ms": rng.uniform(0.5, 5.0)}, fault=True)
def _rewind(ex, index, op):
    # No public API rewinds the cursor, so reach into the machine to
    # break the contract.
    ex._node(op["node"])._host_time -= op["ms"]


@_op(EPISODE, 0, needs="serving")
def _serve(ex, index, op):
    ex._serve()


# -- reading the table ------------------------------------------------------


def op_spec(op: Op) -> OpSpec:
    """The table row for one op; ``ValueError`` on a kind the table lacks."""
    kind = op.get("op")
    if kind not in OPS:
        raise ValueError(f"unknown fuzz op {kind!r}")
    return OPS[kind]


def _applies(spec: OpSpec, config: FuzzConfig) -> bool:
    return spec.needs is None or bool(getattr(config, spec.needs))


def draw_program(
    rng: random.Random,
    config: FuzzConfig,
    num_ops: int = 40,
    fault_rate: float = 0.0,
) -> List[Op]:
    """Draw a random program with concrete, JSON-serializable parameters."""
    palette = [
        kind for kind, spec in OPS.items() if _applies(spec, config)
        for _ in range(spec.weight)
    ]
    fault = next(kind for kind, spec in OPS.items() if spec.fault)
    # Cache event time advances with jitter; occasional backwards queries
    # exercise the age < 0 (entry "from the future") path.
    state = SimpleNamespace(index=0, node=0, event_clock=0.0)
    ops: List[Op] = []
    for index in range(num_ops):
        state.index = index
        planted = fault_rate > 0.0 and rng.random() < fault_rate
        kind = fault if planted else rng.choice(palette)
        state.node = rng.randrange(4)
        ops.append({"op": kind, **OPS[kind].draw(rng, state)})
    if _applies(OPS[EPISODE], config):
        ops.append({"op": EPISODE})
    return ops


def without_faults(ops: List[Op]) -> List[Op]:
    """Erase the planted faults before a differential re-run.

    A planted fault breaks a contract on purpose; the differential
    invariants compare *correct* executions, so replaying the fault twice
    would only mask the finding it exists to trigger.
    """
    return [NOOP if op_spec(op).fault else op for op in ops]


def on_bare_machine(ops: List[Op]) -> List[Op]:
    """A 1-node-cluster program as the bare node machine must replay it."""
    mapped = []
    for op in without_faults(ops):
        bare = op_spec(op).bare
        mapped.append(bare(op) if bare else op)
    return mapped


# -- execution --------------------------------------------------------------


class NullCacheProxy:
    """The staleness-0 reference semantics: probe admin, never store.

    Under a zero staleness bound the hit window ``[0, 0)`` is empty, so a
    correct :class:`DeviceResidentCache` must charge exactly what this proxy
    charges: per-key probe admin on the host, and *nothing* else -- no
    insert kernels, no gathers, no device residency, no frees.  The
    staleness-zero differential invariant runs a program against both and
    demands byte-identical event logs.
    """

    #: Keeps no counters: the cache checks read ``stats`` and skip a proxy.
    stats = None

    def __init__(self, machine: Machine, kind: str) -> None:
        self.machine = machine
        self.kind = kind
        self._probed = 0

    def probe(self, key, now_event_ms):
        self._probed += 1
        return None

    def probe_many(self, keys, times_ms):
        self._probed += len(keys)
        return [None] * len(keys)

    def put(self, key, value, event_ms, nbytes):
        return False

    def put_many(self, keys, value, times_ms, nbytes):
        return 0

    def invalidate(self, keys):
        return 0

    def flush(self):
        return 0

    def flush_charges(self, label: str = "") -> None:
        if not self._probed:
            return
        suffix = f"_{label}" if label else ""
        admin_ms = cache_admin_ms(self._probed, 0, 0)
        if admin_ms > 0.0:
            self.machine.host_work(f"cache_{self.kind}_admin{suffix}", admin_ms)
        self._probed = 0


class Execution:
    """One program run against one config, with online invariant checks.

    Args:
        config: The drawn configuration.
        checks: Invariant names to enforce online (``None`` = all).
        null_cache: Substitute the staleness-0 reference proxy for the real
            cache store (the staleness-zero differential's paired run).
        scalar_cache: Decompose every batched cache op (``probe_many``,
            ``put_many``) into its scalar per-key form (the batched-scalar
            differential's paired run).
        no_trace: Force the serving episode to run without a tracer even
            when the config asks for one (the trace-conservation
            differential's paired run).
    """

    def __init__(
        self,
        config: FuzzConfig,
        checks: Optional[set] = None,
        null_cache: bool = False,
        scalar_cache: bool = False,
        no_trace: bool = False,
    ) -> None:
        self.config = config
        self.checks = checks
        self.scalar_cache = scalar_cache
        self.no_trace = no_trace
        self.cluster: Optional[Cluster] = None
        if config.cluster:
            self.cluster = Cluster(config.cluster, backend=config.backend)
            self.nodes: List[Machine] = list(self.cluster.nodes)
        else:
            self.nodes = [Machine.from_spec(config.topology, backend=config.backend)]
        self.cache = None
        if config.cache:
            owner = self.nodes[0]
            device = owner.gpu if owner.has_gpu else owner.cpu
            if null_cache:
                self.cache = NullCacheProxy(owner, config.cache["kind"])
            else:
                self.cache = DeviceResidentCache(
                    owner,
                    device,
                    config.cache["kind"],
                    make_eviction_policy(config.cache["policy"]),
                    capacity_bytes=config.cache["capacity_bytes"],
                    staleness_ms=config.cache["staleness_ms"],
                )
        self.live_allocs: Dict[int, Tuple[Any, int]] = {}
        self.recorded: Dict[int, Any] = {}
        self.serve_machine: Optional[Machine] = None
        self.serve_report = None
        self.serve_tracer = None
        self._host_before = [n.host_time_ms for n in self.nodes]

    # -- helpers ---------------------------------------------------------

    def _enabled(self, invariant: str) -> bool:
        return self.checks is None or invariant in self.checks

    def _node(self, index: int) -> Machine:
        return self.nodes[index % len(self.nodes)]

    def _device(self, machine: Machine, index: int):
        devices = machine.devices
        return devices[index % len(devices)]

    def _check_online(self) -> None:
        if self._enabled("monotone-clock"):
            for i, node in enumerate(self.nodes):
                if node.host_time_ms < self._host_before[i] - 1e-12:
                    raise InvariantViolation(
                        "monotone-clock",
                        f"node {i} host cursor moved backwards: "
                        f"{self._host_before[i]} -> {node.host_time_ms}",
                    )
                self._host_before[i] = node.host_time_ms
        if self._enabled("memory-pools"):
            for i, node in enumerate(self.nodes):
                for device in node.devices:
                    if device.memory.current_bytes < 0:
                        raise InvariantViolation(
                            "memory-pools",
                            f"node {i} {device.name} pool went negative "
                            f"({device.memory.current_bytes} bytes)",
                        )

    def _check_drained(self, machine: Machine, where: str) -> None:
        if not self._enabled("drain-after-sync"):
            return
        now = machine.host_time_ms
        for device in machine.devices:
            if device.free_at > now + 1e-9:
                raise InvariantViolation(
                    "drain-after-sync",
                    f"{where}: {device.name} busy until {device.free_at} "
                    f"past the cursor at {now}",
                )
        for link in machine.links:
            if link.free_at > now + 1e-9:
                raise InvariantViolation(
                    "drain-after-sync",
                    f"{where}: link {link.name} busy until {link.free_at} "
                    f"past the cursor at {now}",
                )

    def _check_nics_drained(self, where: str) -> None:
        if not self._enabled("drain-after-sync"):
            return
        now = self.cluster.time_ms
        for link in self.cluster.nic_links:
            if link.free_at > now + 1e-9:
                raise InvariantViolation(
                    "drain-after-sync",
                    f"{where}: NIC {link.name} busy until {link.free_at} "
                    f"past the frontier at {now}",
                )

    def run(self, ops: List[Op]) -> "Execution":
        for index, op in enumerate(ops):
            spec = op_spec(op)
            if _applies(spec, self.config):
                spec.apply(self, index, op)
            self._check_online()
        return self

    # -- the serving episode ---------------------------------------------

    def _serve(self) -> None:
        from ..hw.spec import machine_spec
        from ..models.tgat import TGAT, TGATConfig
        from ..serve import build_server, make_requests

        serving = self.config.serving
        dataset = _tiny_dataset()
        model_config = TGATConfig(num_neighbors=4, batch_size=8, seed=0)
        # .get(): reproducer dicts written before the trace field existed
        # must keep replaying unchanged (same for fidelity below).
        tracer = metrics = None
        if serving.get("trace") and not self.no_trace:
            from ..obs import MetricsRegistry, Tracer

            tracer = Tracer()
            metrics = MetricsRegistry()
        # Topology and placement are drawn independently: on a one-GPU
        # topology replicate/shard have nothing to spread over and the
        # episode serves the single model.
        one_gpu = machine_spec(self.config.topology).num_gpus < 2
        server = build_server(
            self.config.topology,
            lambda machine: TGAT(machine, dataset, model_config),
            placement="single" if one_gpu else serving["placement"],
            backend=self.config.backend,
            policy=serving["policy"],
            max_batch_size=8,
            batch_timeout_ms=2.0,
            slo_ms=20.0,
            router=serving["router"],
            overlap=serving["overlap"],
            fidelity=bool(serving.get("fidelity")),
            cache=serving.get("cache"),
            tracer=tracer,
            metrics=metrics,
        )
        requests = make_requests(
            dataset.stream,
            "poisson",
            serving["rate_rps"],
            serving["duration_ms"],
            seed=7,
            events_per_request=1,
            slo_ms=20.0,
        )
        self.serve_machine = server.machine
        self.serve_report = server.serve(requests, label="fuzz", arrival_name="poisson")
        self.serve_tracer = tracer


_DATASET_CACHE: Dict[str, Any] = {}


def _tiny_dataset():
    """The serving episodes' shared dataset (loaded once per process)."""
    if "tiny" not in _DATASET_CACHE:
        from ..datasets import load

        _DATASET_CACHE["tiny"] = load("wikipedia", scale="tiny")
    return _DATASET_CACHE["tiny"]


def signature(machine: Machine) -> List[Tuple]:
    """The event-identity fingerprint differentials compare: the log's rows, every field (11)."""
    return list(machine.events.rows)
