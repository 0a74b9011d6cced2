"""The one serving loop behind every server class.

:class:`ServingCore` closes the loop between the workload generators, the
dynamic batcher and the hardware simulator: it walks the request list in
simulated time, advancing the front-end :class:`~repro.hw.machine.Machine`
host cursor to the next *actionable* instant (an arrival, a batching
timeout, an SLO deadline, an in-flight completion, a warming replica coming
online) whenever the pipeline is idle, and charging all model work to the
hardware in between.  Arrivals, batching decisions and model execution share
one host clock, so per-request latencies fall straight out of the event
timeline.  :class:`~repro.serve.server.InferenceServer`,
:class:`~repro.serve.scaleout.ScaleOutServer` and
:class:`~repro.serve.cluster.ClusterServer` are constructors over this
class; the only thing that differs between them is *how a formed batch
executes*, and the core branches on that, never on which class built it.

**The host joins the device** (no router; one model):

* *blocking* -- each dispatched batch runs through ``inference_iteration``:
  sampling on the host, compute on the device, a full synchronisation at
  the end.  This is the seed's serialized semantics and the baseline the
  paper profiles.
* *overlap* -- for models declaring ``supports_overlap`` the core keeps one
  batch in flight: when batch ``i+1`` is formed (from requests that queued
  up while ``i`` was running) its sampling is issued onto the
  ``serve-sampling`` CPU stream *before* the host blocks on batch ``i``'s
  device work, so the two overlap in simulated time exactly as in
  :class:`repro.optim.OverlappedRunner`.  Under load this shortens the
  effective service time towards ``max(host, device)``, which is what pulls
  in the p99.

**The host never joins** (a :class:`~repro.serve.router.Router` picks one of
N replicas -- round-robin, join-shortest-queue or least estimated latency):

* each replica owns a named CPU *sampling worker* stream
  (``serve-sampling-<r>``, the simulator's model of per-replica data-loader
  threads on the multi-core host).  The batch's sampling is issued there
  asynchronously, the replica's GPU stream is floored on the sampling-done
  event, and the kernels are launched (``dispatch_iteration``) without any
  trailing sync.  The host pays only dispatch overheads, so batches routed
  to different replicas execute concurrently -- this is where N GPUs buy
  throughput.  (The batch's input copies are issued at dispatch time, a
  staging approximation; they are orders of magnitude shorter than the
  sampling they follow.)
* the returned :class:`~repro.hw.stream.StreamEvent` carries the batch's
  completion time; the loop retires in-flight batches, in dispatch order, as
  the cursor passes their ready times.
* because the single host thread still serializes sampling issue and kernel
  dispatch, replicated serving saturates once host work per batch exceeds
  ``device work / N`` -- the host-bound ceiling a real single-process
  multi-GPU server hits, and the regime the ``scaling`` experiment maps out.
* on a multi-node :class:`~repro.hw.Cluster` node 0 is the *front-end*: it
  owns the arrival queue, the batcher and the router, and its clock drives
  the loop.  A batch routed to a **remote** replica first ships its event
  payload over the node-pair NIC (:meth:`~repro.hw.Cluster.transfer`), then
  the remote node's *own* host -- synced forward to the payload's arrival --
  runs the sampling and kernel dispatch.  The front-end pays only the NIC
  issue overhead, so per-batch host work spreads over N host threads instead
  of serializing on one: this is how the single-host dispatch wall falls.
  Completion events carry times in the shared cluster frame, so the same
  cursor-passing rule retires batches from any node.  A cluster of one node
  has no NIC and no barrier and is event-for-event a plain machine.

Feedback split: the scheduler policy observes the full dispatch->completion
span (what a request experiences once batched), divided by the fidelity
decision's cost scale so the EWMA keeps estimating what an *undegraded*
batch costs -- otherwise a degraded period would talk the policy out of
degrading, and recovery would start from an optimistic estimate.  The router
instead observes the batch's raw *execution* time -- the span excluding time
queued behind earlier batches on the same replica -- because its
least-latency estimate multiplies the per-request cost by the in-flight
count, and queue-inclusive samples would count the backlog twice.

Caches: each replica may carry an attached :class:`~repro.cache.ModelCache`
(entries live on that replica's GPU), consulted by the model inside its
prepare/compute phases.  A batch probes only the cache of the replica it is
routed to, but its events are graph mutations for *every* replica, so each
dispatch broadcasts the touched-node invalidation to all other replicas'
caches, remote or not.  The report carries the counters merged across
replicas (a single model's own ``cache_stats()`` is passed through as is).

With an :class:`~repro.serve.autoscale.Autoscaler` the active replica set
becomes elastic: the core provides the spin-up charge (weight transfer to
the new replica's GPU, over the NIC for remote nodes, plus an optional cache
backfill) and the spin-down (cache flush), and consults it every loop step.

Observability (:mod:`repro.obs`): ``tracer`` and ``metrics`` are strictly
read-only taps.  When ``None`` the hot path pays one attribute test per hook
and allocates nothing -- runs are event-for-event identical either way.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from ..cache import backfill_embeddings, merge_cache_stats
from ..core.profiler import Profiler
from ..domain import NON_NEGATIVE_INT
from ..hw.cluster import Cluster
from ..hw.stream import StreamEvent
from ..models.base import require_protocol
from ..obs.metrics import MetricsRegistry, record_completion, record_dispatch
from ..obs.trace import Tracer
from .autoscale import Autoscaler
from .batcher import DynamicBatcher
from .fidelity import FULL_FIDELITY, FidelityController
from .policy import SchedulerPolicy
from .request import Request
from .router import Router
from .telemetry import ServingReport


class Flight(NamedTuple):
    """One dispatched batch the loop has not completed yet."""

    batch: List[Request]
    #: Index of the serving replica.
    replica: int
    #: Async dispatch: the batch's completion event.  Pipelined overlap:
    #: the sampling-done event the host waits on before compute.
    ready: Optional[StreamEvent]
    #: Modeled cost scale of the fidelity decision the batch ran under.
    cost_scale: float = FULL_FIDELITY.cost_scale
    #: Open service-span id (``None`` when no tracer is attached).
    span_id: Optional[int] = None
    #: Merged payload and sampling plan (pipelined overlap only).
    payload: Any = None
    plan: Any = None


class ServingCore:
    """Serves a request list against replicas on a machine or a cluster.

    Without a ``router`` the one replica's host joins the device; without a
    ``cluster`` every replica lives on the front-end machine.
    """

    #: CPU stream pipelined-overlap sampling is issued onto.
    SAMPLING_STREAM = "serve-sampling"

    def __init__(
        self,
        replicas: Sequence[Any],
        policy: SchedulerPolicy,
        router: Optional[Router] = None,
        cluster: Optional[Cluster] = None,
        replica_nodes: Optional[Sequence[int]] = None,
        autoscaler: Optional[Autoscaler] = None,
        overlap: bool = False,
        fidelity: Optional[FidelityController] = None,
        backfill_nodes: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not replicas:
            raise ValueError("serving needs at least one replica")
        if router is not None:
            if router.num_replicas != len(replicas):
                raise ValueError(
                    f"router expects {router.num_replicas} replicas, got {len(replicas)}"
                )
            for replica in replicas:
                require_protocol(replica, "async dispatch", "routed serving requires it")
        if fidelity is not None:
            policy.attach_fidelity(fidelity)
        self.replicas = list(replicas)
        self.replica_nodes = list(replica_nodes or [0] * len(replicas))
        self.policy = policy
        self.router = router
        self.cluster = cluster
        #: The front-end machine (node 0 of a cluster): its clock drives the loop.
        self.machine = cluster.nodes[0] if cluster is not None else self.replicas[0].machine
        self.autoscaler = autoscaler
        self.overlap = overlap
        self.fidelity = fidelity
        self.backfill_nodes = NON_NEGATIVE_INT.check("backfill_nodes", backfill_nodes)
        self.tracer = tracer
        self.metrics = metrics
        self.batcher = DynamicBatcher(policy)
        #: Async-dispatched batches, in dispatch order, awaiting the cursor.
        self._inflight: List[Flight] = []
        #: The one pipelined batch whose compute the host has yet to join.
        self._prepared: Optional[Flight] = None
        #: Per-replica ready time of the last retired batch, used to split a
        #: batch's dispatch->completion span into queue-behind-own-replica
        #: versus actual execution.
        self._last_ready: List[float] = [0.0] * len(self.replicas)
        #: Serve-loop origin on the front-end clock.
        self._t0 = 0.0
        self._fidelity_level = 0

    @staticmethod
    def sampling_stream(replica_index: int) -> str:
        """Name of one replica's CPU sampling-worker stream."""
        return f"serve-sampling-{replica_index}"

    def serve(
        self,
        requests: Sequence[Request],
        label: str,
        arrival_name: str = "trace",
        warm_up: bool = True,
    ) -> ServingReport:
        """Serve ``requests`` to completion and return the telemetry report.

        Warm-up (GPU context, weight upload, allocation warm-up for a
        representative batch, optional cache backfill) happens outside the
        measured window, as in the offline experiments; the profiling capture
        wraps the serving loop so utilization numbers reflect steady-state
        serving only.
        """
        front = self.machine
        cluster = self.cluster
        multi_node = cluster is not None and cluster.num_nodes > 1
        report = ServingReport(
            label=label,
            policy=self.policy.describe(),
            arrival=arrival_name,
            offered=len(requests),
            overlap=self.overlap,
        )
        if self.router is not None:
            report.placement = "replicate"
            report.router = self.router.describe()
            report.num_replicas = len(self.replicas)
        else:
            # One model: it names its own placement (a ShardedModel says "shard").
            report.placement = self.replicas[0].serving_placement
            report.num_replicas = self.replicas[0].num_replicas
        if cluster is not None:
            report.cluster = {
                "spec": cluster.spec.name,
                "num_nodes": cluster.num_nodes,
                "nic": cluster.spec.nic.name,
                "nic_bytes": cluster.nic_bytes(),
            }
        if not requests:
            return report
        if self.fidelity is not None:
            self.fidelity.set_cache_available(
                any(replica.cache is not None for replica in self.replicas)
            )
        if self.tracer is not None:
            # A cluster is attached whole even when its front-end already is:
            # the serving nodes' spans need their node names too.
            if cluster is not None:
                self.tracer.attach_cluster(cluster)
            elif not self.tracer.attached(front):
                self.tracer.attach(front)
        ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        with front.activate():
            if warm_up:
                head = [r.payload for r in ordered[: self.policy.max_batch_size]]
                batch = self.replicas[0].make_request_batch(head)
                for replica in self.replicas:
                    with replica.machine.activate():
                        replica.warm_up(batch)
                    # Proactive warming: precompute hot-node embeddings into
                    # the replica's cache before the first request, charged
                    # to the owning node and drained by the barrier below.
                    self._backfill(replica)
                # A real barrier, not just clock alignment: remote warm-up
                # ships weights over the NICs, and serving must not start
                # while those payloads are still in flight.  With one node
                # there are no NICs and nothing cluster-wide to drain, and
                # the hard sync would break byte-identity with a plain
                # machine (where nothing joins the streams here).
                if multi_node:
                    cluster.synchronize()
            profiler = Profiler(front)
            with profiler.capture(label):
                completed, duration_ms = self._loop(ordered)
        if multi_node:
            cluster.synchronize()
        profile = profiler.last_profile
        report.requests = completed
        report.duration_ms = duration_ms
        report.gpu_utilization = profile.gpu_utilization()
        # On multi-node runs every per-device key is node-qualified
        # (``node<i>:<gpu>``): node machines share GPU names, and bare names
        # from node 0 would collide with (or be mistaken for) remote ones.
        report.per_device_utilization = {
            (f"node0:{name}" if multi_node else name): value
            for name, value in profile.per_gpu_utilization().items()
        }
        if cluster is not None:
            report.cluster["nic_bytes"] = cluster.nic_bytes()
        if profile.elapsed_ms > 0:
            report.cpu_utilization = min(1.0, profile.device_busy_ms("cpu") / profile.elapsed_ms)
        if multi_node and profile.elapsed_ms > 0:
            # Remote nodes are outside the front-end profiler's machine;
            # read their device busy fractions over the same window.
            start = profile.start_ms
            end = profile.start_ms + profile.elapsed_ms
            for node_index, node in enumerate(cluster.nodes[1:], start=1):
                for gpu in node.gpus:
                    key = f"node{node_index}:{gpu.name}"
                    report.per_device_utilization[key] = gpu.utilization(start, end)
            report.cluster["nic_busy"] = {
                link.name: round(link.busy_ms(start, end) / profile.elapsed_ms, 4)
                for link in cluster.nic_links
            }
        if self.router is None:
            report.cache = self.replicas[0].cache_stats()
        else:
            report.cache = merge_cache_stats([replica.cache_stats() for replica in self.replicas])
        if self.autoscaler is not None:
            report.autoscale = self.autoscaler.stats(duration_ms)
        if self.fidelity is not None:
            report.fidelity = self.fidelity.snapshot()
        if self.metrics is not None:
            report.metrics = self.metrics.snapshot(duration_ms)
        return report

    def _loop(self, requests: Sequence[Request]) -> Tuple[List[Request], float]:
        """Run the arrival/batch/execute loop; returns (completed, duration)."""
        front = self.machine
        t0 = self._t0 = front.host_time_ms
        if self.tracer is not None:
            self.tracer.t0 = t0
        autoscaler = self.autoscaler
        if autoscaler is not None:
            autoscaler.bind(self.router, len(self.replicas), self._spin_up, self._spin_down)
        completed: List[Request] = []
        index = 0
        while True:
            self._retire(completed)
            now = front.host_time_ms - t0
            while index < len(requests) and requests[index].arrival_ms <= now + 1e-9:
                if autoscaler is not None:
                    autoscaler.observe_arrival(requests[index].arrival_ms)
                self.batcher.enqueue(requests[index])
                index += 1
            if autoscaler is not None:
                autoscaler.step(now)
            batch = self.batcher.poll(now)
            if batch:
                self._dispatch(batch, completed)
                continue
            if self._prepared is not None:
                # Nothing new to form: join the pipelined batch.  Requests
                # arriving during its device work are admitted next tick.
                flight, self._prepared = self._prepared, None
                self._join(flight, completed)
                continue
            # Idle: advance the front-end clock to the next actionable
            # instant -- an arrival, a batching deadline, an in-flight
            # completion, or a warming replica coming online.
            targets = []
            if index < len(requests):
                targets.append(requests[index].arrival_ms)
            deadline = self.batcher.next_deadline_ms(now)
            if deadline is not None:
                targets.append(deadline)
            if self._inflight:
                targets.append(min(f.ready.ready_ms for f in self._inflight) - t0)
            if autoscaler is not None:
                pending_ready = autoscaler.next_ready_ms()
                if pending_ready is not None:
                    targets.append(pending_ready)
            if not targets:
                if len(self.batcher) == 0:
                    break
                # Arrivals exhausted and the policy would wait forever: drain.
                self._dispatch(self.batcher.force(now), completed)
                continue
            front.advance_host(max(min(targets) - now, 1e-6))
        return (completed, front.host_time_ms - t0)

    # -- execution ---------------------------------------------------------------

    def _dispatch(self, batch: List[Request], completed: List[Request]) -> None:
        """Route one freshly formed batch to a replica and execute it."""
        front = self.machine
        now = front.host_time_ms - self._t0
        routed = self.router is not None
        target = self.router.route(len(batch), now) if routed else 0
        replica = self.replicas[target]
        cost_scale = self._degrade(batch, now, replica)
        span_id = None
        if self.tracer is not None:
            span_id = self._trace_dispatch(batch, target, now)
        if self.metrics is not None:
            record_dispatch(self.metrics, len(batch), len(self.batcher))
        payload = replica.make_request_batch([r.payload for r in batch])
        for request in batch:
            request.dispatched_ms = now
            request.batch_size = len(batch)
            if routed:
                request.replica = target
        if routed:
            node = replica.machine
            if node is not front:
                # Remote replica: ship the event payload over the NIC; the
                # front-end pays only the issue overhead, and the remote
                # host picks the batch up when the payload lands.
                node_index = self.replica_nodes[target]
                arrival = self._ship(
                    node_index, node.cpu, max(payload.nbytes(), 1), "route_payload", span_id
                )
                self.cluster.sync_node(node_index, arrival)
            with node.activate():
                plan = None
                if replica.supports_overlap:
                    plan, prepared = self._prepare(node, target, payload, span_id)
                    device = replica.compute_device
                    if device.is_gpu:
                        node.wait_event(node.default_stream(device), prepared)
                ready = replica.dispatch_iteration(payload, plan=plan)
            self.router.notify_dispatch(target, len(batch))
            self._inflight.append(Flight(batch, target, ready, cost_scale, span_id))
            self._broadcast_invalidation(target, payload)
        elif not self.overlap:
            replica.inference_iteration(payload)
            self._complete(
                Flight(batch, target, None, cost_scale, span_id), front.host_time_ms, completed
            )
        else:
            # Issue this batch's sampling onto the prefetch stream *before*
            # blocking on the previous batch's device work, so the two run
            # concurrently in simulated time.
            plan, prepared = self._prepare(front, target, payload, span_id)
            previous, self._prepared = (
                self._prepared,
                Flight(batch, target, prepared, cost_scale, span_id, payload, plan),
            )
            if previous is not None:
                self._join(previous, completed)

    def _prepare(
        self, machine: Any, target: int, payload: Any, span_id: Optional[int]
    ) -> Tuple[Any, StreamEvent]:
        """Issue a batch's sampling onto a named CPU stream of ``machine``.

        The stream is replica ``target``'s sampling worker under a router,
        the one prefetch stream otherwise.  Returns ``(sampling plan,
        sampling-done event)``; the ``sample`` span runs from the serving
        node's clock at issue to that event.
        """
        if self.router is None:
            stream_name, event_name, attrs = self.SAMPLING_STREAM, "serve_prepared", {}
        else:
            stream_name, event_name = self.sampling_stream(target), f"prepared-r{target}"
            attrs = {"replica": target}
        issue_ms = machine.host_time_ms
        stream = machine.stream(machine.cpu, stream_name)
        with machine.use_stream(stream):
            plan = self.replicas[target].prepare_iteration(payload)
            prepared = machine.record_event(stream, name=event_name)
        if span_id is not None:
            self.tracer.span(
                "sample", "sample", issue_ms, prepared.ready_ms,
                machine=machine, parent_id=span_id, **attrs,
            )
        return plan, prepared

    def _join(self, flight: Flight, completed: List[Request]) -> None:
        """Retire one pipelined batch: wait for its plan, run device compute."""
        machine = self.machine
        started = machine.host_time_ms
        machine.event_synchronize(flight.ready, name="serve_wait_prepared")
        self.replicas[flight.replica].compute_iteration(flight.payload, flight.plan)
        if flight.span_id is not None:
            self.tracer.span(
                "compute", "compute", started, machine.host_time_ms,
                machine=machine, parent_id=flight.span_id,
            )
        self._complete(flight, machine.host_time_ms, completed)

    def _retire(self, completed: List[Request]) -> None:
        """Complete every async batch the front-end cursor has passed."""
        horizon = self.machine.host_time_ms + 1e-9
        still_inflight: List[Flight] = []
        for flight in self._inflight:
            if flight.ready.ready_ms > horizon:
                still_inflight.append(flight)
            else:
                self._complete(flight, flight.ready.ready_ms, completed)
        self._inflight = still_inflight

    def _complete(self, flight: Flight, end_ms: float, completed: List[Request]) -> None:
        """Stamp completions at ``end_ms``; feed the policy, router, autoscaler.

        ``end_ms`` is the host cursor after the join, or the completion
        event's ready time when the host never joined.
        """
        batch = flight.batch
        done = end_ms - self._t0
        for request in batch:
            request.completed_ms = done
        completed.extend(batch)
        if flight.span_id is not None:
            self.tracer.close_span(flight.span_id, end_ms)
        if self.metrics is not None:
            for request in batch:
                record_completion(self.metrics, request)
        dispatched = batch[0].dispatched_ms
        self.policy.observe(len(batch), (done - dispatched) / flight.cost_scale)
        if self.router is not None:
            target = flight.replica
            started = max(self._last_ready[target], dispatched + self._t0)
            self._last_ready[target] = end_ms
            self.router.notify_complete(target, len(batch), max(0.0, end_ms - started))
        if self.autoscaler is not None:
            for request in batch:
                self.autoscaler.observe_completion(done, request.total_ms)

    # -- cross-cutting hooks -------------------------------------------------------

    def _trace_dispatch(self, batch: List[Request], target: int, now: float) -> int:
        """Open the batch's service span (on its serving node) and close the
        queue spans of its riders (on the front-end node that held them).

        Returns the service span's id.
        """
        tracer = self.tracer
        start_ms = self._t0 + now
        name = f"batch-{batch[0].request_id}"
        attrs = {}
        if self.router is not None:
            name = f"batch-r{target}"
            attrs["replica"] = target
            if self.cluster is not None:
                attrs["node_index"] = self.replica_nodes[target]
        span_id = tracer.span(
            name, "service", start_ms,
            machine=self.replicas[target].machine,
            trace_ids=tuple(r.request_id for r in batch),
            **attrs,
        )
        for request in batch:
            tracer.span(
                "queue", "queue", self._t0 + request.arrival_ms, start_ms,
                machine=self.machine, trace_ids=(request.request_id,),
            )
        return span_id

    def _degrade(self, batch: List[Request], now_ms: float, replica: Any) -> float:
        """Advance the fidelity controller and apply its levers to ``replica``.

        Each replica owns its model and cache, so the decision is applied to
        the batch's *target* only; other replicas keep whatever level their
        last dispatch set.  Returns the decision's modeled cost scale so
        :meth:`_complete` can normalize the observed service time back to
        full-quality cost.  Without a controller this is a strict no-op on
        every model/cache code path (scale 1.0, base staleness).
        """
        if self.fidelity is None:
            return FULL_FIDELITY.cost_scale
        pressured = self.policy.deadline_pressured(batch, now_ms)
        lost = sum(
            1
            for request in batch
            if request.deadline_ms is not None and request.deadline_ms <= now_ms
        )
        decision = self.fidelity.on_dispatch(pressured, len(batch), lost_deadlines=lost)
        if self.tracer is not None and decision.level != self._fidelity_level:
            self.tracer.instant(
                f"fidelity:level={decision.level}", "fidelity", self.machine.host_time_ms,
                machine=self.machine, previous=self._fidelity_level,
            )
        self._fidelity_level = decision.level
        replica.set_fanout_scale(decision.fanout_scale)
        if replica.cache is not None:
            replica.cache.set_fidelity(decision.staleness_scale, decision.force_hits)
        return decision.cost_scale

    def _broadcast_invalidation(self, origin: int, payload: Any) -> None:
        """Invalidate the batch's touched nodes in every *other* replica cache.

        The origin replica's own cache already handled the batch (its
        request path invalidates and re-inserts); the other replicas only
        learn that the touched nodes' cached samples/embeddings now predate
        new graph events.  Each invalidation is charged as host work to the
        owning replica's node, modelling the coherence fan-out of a
        replicated serving tier.
        """
        touched = None
        for index, replica in enumerate(self.replicas):
            if index == origin:
                continue
            if replica.cache is None:
                continue
            if touched is None:
                touched = payload.touched_nodes().tolist()
            replica.cache.invalidate_nodes(touched)
        if touched is not None and self.tracer is not None:
            self.tracer.instant(
                "invalidate_broadcast", "cache", self.machine.host_time_ms,
                machine=self.machine, origin=origin, nodes=len(touched),
            )

    def _backfill(self, replica: Any) -> None:
        """Backfill ``replica``'s cache -- every shard's, for a sharded model."""
        if self.backfill_nodes <= 0:
            return
        for model in replica.backfill_targets:
            if model.cache is not None:
                backfill_embeddings(model, top_k=self.backfill_nodes)

    def _ship(
        self, node_index: int, dst: Any, nbytes: int, name: str, span_id: Optional[int] = None
    ) -> float:
        """Ship ``nbytes`` from the front-end host to ``dst`` on node ``node_index``.

        Returns the arrival time.  Traced, a payload that crosses a NIC is
        one ``nic:<name>`` span from issue to arrival on the front-end
        track, a child of service span ``span_id`` carrying its trace ids
        (a spin-up's weight transfer has neither).
        """
        front = self.machine
        issue_ms = front.host_time_ms
        arrival = self.cluster.transfer(0, front.cpu, node_index, dst, nbytes, name=name)
        if self.tracer is not None and node_index != 0:
            self.tracer.span(
                f"nic:{name}", "nic", issue_ms, arrival,
                machine=front, parent_id=span_id,
                src_node=0, dst_node=node_index, bytes=int(nbytes),
            )
        return arrival

    # -- autoscaler charge callbacks ---------------------------------------------

    def _spin_up(self, index: int, now_ms: float) -> float:
        """Charge one replica's cold start; returns its ready time.

        The replica's weights are shipped from the front-end host to its
        compute device -- over the NIC plus the remote PCIe link for remote
        replicas, over the local host link otherwise.  The replica joins
        the fleet when the weights land.  (Its serving cache was flushed at
        spin-down, so warm-up misses follow naturally.)
        """
        replica = self.replicas[index]
        node_index = self.replica_nodes[index]
        if self.tracer is not None:
            self.tracer.instant(
                f"scale:up:r{index}", "scale", self._t0 + now_ms,
                machine=self.machine, node_index=node_index,
            )
        device = replica.compute_device
        if node_index == 0 and not device.is_gpu:
            return now_ms  # host-resident replica: nothing to ship
        node = self.cluster.nodes[node_index]
        arrival = self._ship(
            node_index,
            device if device.is_gpu else node.cpu,
            max(replica.param_bytes(), 1),
            "weight_transfer",
        )
        ready_ms = arrival
        # Re-warm the flushed cache as part of the cold start: the replica
        # only joins the fleet once its hot rows are back, so the backfill
        # charge lands inside the modeled spin-up latency.
        if self.backfill_nodes > 0 and replica.cache is not None:
            if node_index != 0:
                self.cluster.sync_node(node_index, arrival)
            backfill_embeddings(replica, top_k=self.backfill_nodes)
            ready_ms = max(arrival, node.host_time_ms)
        return ready_ms - self._t0

    def _spin_down(self, index: int, now_ms: float) -> None:
        """Release one replica: flush its cache so re-activation is cold."""
        if self.tracer is not None:
            self.tracer.instant(
                f"scale:down:r{index}", "scale", self._t0 + now_ms, machine=self.machine
            )
        cache = self.replicas[index].cache
        if cache is not None:
            cache.flush()
