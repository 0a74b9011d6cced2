"""Online inference serving on top of the hardware simulator.

The paper characterizes DGNN inference one offline iteration at a time; this
package turns that per-iteration cost model into end-to-end latency and
throughput numbers under load.  It simulates an online serving stack on the
:class:`~repro.hw.machine.Machine` clock:

* :mod:`repro.serve.workload` -- seeded request generators (Poisson, bursty
  on/off, dataset-trace replay) over an event stream;
* :mod:`repro.serve.batcher` / :mod:`repro.serve.policy` -- a request queue
  with dynamic batching under pluggable scheduler policies (FIFO, timeout
  batching, SLO-aware batch shrinking);
* :mod:`repro.serve.core` -- the one serving loop: blocking execution, the
  stream-based sampling/compute overlap of :mod:`repro.optim`, or routed
  async dispatch to replicas on a machine or across a cluster's NICs;
* :mod:`repro.serve.server` -- :class:`InferenceServer`, the core over one
  model with no router;
* :mod:`repro.serve.fidelity` -- adaptive fidelity: a degradation controller
  the SLO policy consults under deadline pressure, trading modeled quality
  (fan-out, staleness, forced cache hits) for latency and accounting the
  debt;
* :mod:`repro.serve.router` / :mod:`repro.serve.placement` /
  :mod:`repro.serve.scaleout` -- multi-GPU scale-out: replicated serving
  (:class:`ScaleOutServer`, the core over per-GPU model replicas behind a
  batch router) and sharded serving (a seeded graph partition splitting
  each batch across GPUs, with cross-shard gathers charged to the
  interconnect);
* :mod:`repro.serve.cluster` / :mod:`repro.serve.autoscale` -- cluster-scale
  serving: :class:`ClusterServer`, the core over replicas spread across the
  nodes of a :class:`~repro.hw.Cluster` with batch payloads routed over
  NICs, plus an elastic autoscaler that grows/shrinks the active fleet
  against watermark and SLO signals, with modeled cold-start charges;
* :mod:`repro.serve.telemetry` -- per-request queue/service/total latency,
  p50/p95/p99 percentiles, throughput, SLO-violation rate and per-device
  utilization.

* :mod:`repro.serve.assemble` -- :func:`build_server`, the one assembly in
  front of all of the above: topology preset name -> machine or cluster ->
  replicas -> caches -> policy -> router -> the matching server class, and
  the one statement of which combinations are legal.  The CLI, the fuzzer's
  serving episode and the serving experiments build every server through it.

See the ``serving``/``scaling`` experiments and the ``repro-dgnn serve``
CLI subcommand for the end-to-end sweeps.
"""

from .assemble import PLACEMENTS, build_server
from .autoscale import AutoscaleConfig, Autoscaler
from .batcher import DynamicBatcher
from .cluster import ClusterServer, build_cluster_replicas
from .fidelity import FULL_FIDELITY, FidelityController
from .placement import ShardedModel, build_replicas
from .policy import (
    POLICIES,
    FIFOPolicy,
    SchedulerPolicy,
    ServiceTimeEstimator,
    SLOAwarePolicy,
    TimeoutBatchingPolicy,
    applicable_policy_overrides,
    available_policies,
    make_policy,
)
from .request import Request
from .router import (
    JoinShortestQueueRouter,
    LeastLatencyRouter,
    RoundRobinRouter,
    Router,
    available_routers,
    make_router,
)
from .scaleout import ScaleOutServer
from .server import InferenceServer
from .telemetry import ServingReport
from .workload import (
    BurstyProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    PoissonProcess,
    TraceReplay,
    available_arrivals,
    generate_requests,
    make_arrival_process,
    make_requests,
)

__all__ = [
    "AutoscaleConfig",
    "Autoscaler",
    "BurstyProcess",
    "ClusterServer",
    "DiurnalProcess",
    "DynamicBatcher",
    "FIFOPolicy",
    "FULL_FIDELITY",
    "FidelityController",
    "FlashCrowdProcess",
    "InferenceServer",
    "JoinShortestQueueRouter",
    "LeastLatencyRouter",
    "PLACEMENTS",
    "POLICIES",
    "PoissonProcess",
    "Request",
    "RoundRobinRouter",
    "Router",
    "SLOAwarePolicy",
    "ScaleOutServer",
    "SchedulerPolicy",
    "ServiceTimeEstimator",
    "ServingReport",
    "ShardedModel",
    "TimeoutBatchingPolicy",
    "TraceReplay",
    "applicable_policy_overrides",
    "available_arrivals",
    "available_policies",
    "available_routers",
    "build_cluster_replicas",
    "build_replicas",
    "build_server",
    "generate_requests",
    "make_arrival_process",
    "make_policy",
    "make_requests",
    "make_router",
]
