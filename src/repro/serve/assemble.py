"""One serving assembly: topology name -> replicas -> caches -> server.

:func:`build_server` is the step before the serving loop, written once:
resolve a machine or cluster preset, build the model replicas on it, attach
their caches, build the scheduler policy and the router, and hand everything
to the matching :class:`~repro.serve.core.ServingCore` constructor.  The
``serve`` CLI, the fuzzer's serving episode and the serving experiments all
stand their servers up through it, so the rules about which combinations
the core can run are stated here and nowhere else (``docs/ARCHITECTURE.md``
renders them as a table); what a built part rejects itself -- a model that
cannot cache, ``fidelity`` without the ``slo`` policy -- stays where it is
raised.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..cache import make_model_cache
from ..domain import Domain
from ..graph.partition import make_partition
from ..hw.cluster import Cluster
from ..hw.machine import Machine
from ..hw.spec import CLUSTER_SPECS, available_cluster_specs, machine_spec
from ..models.base import require_protocol
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .autoscale import AutoscaleConfig, Autoscaler
from .cluster import ClusterServer, build_cluster_replicas
from .core import ServingCore
from .fidelity import FidelityController
from .placement import ShardedModel, build_replicas
from .policy import applicable_policy_overrides, make_policy
from .router import make_router
from .scaleout import ScaleOutServer
from .server import InferenceServer

PLACEMENTS = ("single", "replicate", "shard")


def build_server(
    topology: str,
    model_factory: Callable[[Machine], Any],
    *,
    placement: str = "single",
    num_replicas: Optional[int] = None,
    backend: str = "numeric",
    policy: str = "timeout",
    max_batch_size: int = 8,
    batch_timeout_ms: Optional[float] = None,
    slo_ms: Optional[float] = None,
    router: str = "round-robin",
    partitioner: str = "degree",
    seed: int = 0,
    overlap: bool = False,
    fidelity: bool = False,
    cache: Optional[Dict[str, Any]] = None,
    backfill: int = 0,
    autoscale: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ServingCore:
    """Stand up the server one serving configuration describes.

    Every parameter carries a value some caller sets, named in brackets:
    ``serve`` flags, the fuzzer's serving episode, the serving experiments.

    Args:
        topology: Machine or cluster preset name [``--topology``; fuzz
            topology; ``scaling`` spec column; ``autoscaling`` cluster].
        model_factory: ``factory(machine)`` -> one replica, called inside the
            owning machine's placement context [every caller].
        placement: ``single`` (one model, the host joins the device),
            ``replicate`` (a replica per GPU behind ``router``) or ``shard``
            (one graph-sharded model) [``--placement``; fuzz; ``scaling``].
        num_replicas: GPUs to use, in topology order; default all
            [``--gpus``; ``scaling`` gpus column; ``autoscaling`` static fleets].
        backend: Execution backend of the machines [``--backend``; fuzz;
            every experiment].
        policy / max_batch_size: Scheduler policy name and batching cap
            [``--policy`` / ``--max-batch-size``; fuzz; every experiment].
        batch_timeout_ms / slo_ms: The one pair a sweep carries across
            policies; each policy gets what it consumes
            (:func:`~repro.serve.policy.applicable_policy_overrides`), and
            ``slo_ms`` is the autoscaler's tail objective too
            [``--batch-timeout-ms`` / ``--slo-ms``; fuzz; every experiment].
        router: Batch router name [``--router``; fuzz; ``scaling``,
            ``autoscaling``].
        partitioner / seed: Node partitioner and its seed for ``shard``
            [``--partitioner`` / ``--seed``; ``scaling``].
        overlap: Pipeline sampling under compute, one batch deep
            [``--overlap``; fuzz; ``serving`` mode axis; ``cache_ablation``].
        fidelity: Attach the default adaptive-fidelity controller
            [``--fidelity``; fuzz; ``adaptive_fidelity`` on/off axis].
        cache: :func:`~repro.cache.make_model_cache` keyword arguments, one
            cache per replica; ``None`` serves uncached [``--cache`` and its
            three flags; fuzz; ``cache_ablation``; ``adaptive_fidelity``].
        backfill: Hot nodes precomputed into every cache after warm-up and
            inside autoscaling cold starts [``--backfill``].
        autoscale: :class:`~repro.serve.autoscale.AutoscaleConfig` keyword
            arguments for an elastic fleet (``max_replicas`` defaults to
            every replica built, ``slo_ms`` to the run's); ``None`` keeps
            it static [``--autoscale`` / ``--min-replicas`` /
            ``--max-replicas``; ``autoscaling`` elastic row].
        tracer / metrics: Read-only observability taps [``--trace``; fuzz].

    Returns:
        The :class:`InferenceServer` (``single``, ``shard``),
        :class:`ScaleOutServer` (``replicate``) or :class:`ClusterServer`
        (cluster topologies), on a freshly built machine or cluster.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}; pick from {PLACEMENTS}")
    clustered = topology in CLUSTER_SPECS
    num_gpus = (
        CLUSTER_SPECS[topology].total_gpus if clustered else machine_spec(topology).num_gpus
    )
    # Cluster topologies always serve one replica per GPU behind the router,
    # so ``single`` and ``replicate`` mean the same thing there.
    single = placement == "single" and not clustered
    # The rule table: (what the core cannot run, the message).  Messages name
    # the ``serve`` flags because the CLI prints them verbatim.
    rules = (
        (backfill and cache is None, "--backfill warms the serving cache; pass --cache"),
        (
            autoscale is not None and not clustered,
            "--autoscale needs a cluster topology "
            f"(one of: {', '.join(available_cluster_specs())})",
        ),
        (
            placement == "shard" and clustered,
            "--placement shard is single-machine only; cluster topologies "
            "serve one replica per GPU behind a router",
        ),
        (
            placement == "shard" and fidelity,
            "--fidelity is not offered with --placement shard: the degradation "
            "levers act on one model and its cache, a sharded batch spans them all",
        ),
        (
            overlap and not single,
            "--overlap applies to single-model serving on a machine topology; "
            "replicated and cluster dispatch already overlap sampling and compute",
        ),
        (num_gpus < 1 and not single, f"--placement {placement} needs a GPU topology"),
        (
            num_replicas is not None and single,
            "--gpus only applies to --placement replicate/shard and to cluster "
            "topologies; single-model serving always runs on GPU 0",
        ),
    )
    for broken, message in rules:
        if broken:
            raise ValueError(message)
    if num_replicas is not None:
        Domain(1, num_gpus, integer=True).check(f"--gpus on {topology!r}", num_replicas)
    if clustered:
        cluster = Cluster(topology, backend=backend)
        replicas, nodes = build_cluster_replicas(cluster, model_factory)
        replicas, nodes = replicas[:num_replicas], nodes[:num_replicas]
    else:
        machine = Machine.from_spec(topology, backend=backend)
        with machine.activate():
            if placement == "single":
                replicas = [model_factory(machine)]
            else:
                replicas = build_replicas(
                    machine, lambda: model_factory(machine), machine.gpus[:num_replicas]
                )
    if cache is not None:
        for replica in replicas:
            with replica.machine.activate():
                make_model_cache(replica, **cache)
    scheduler = make_policy(
        policy,
        max_batch_size=max_batch_size,
        **applicable_policy_overrides(policy, batch_timeout_ms=batch_timeout_ms, slo_ms=slo_ms),
    )
    shared = dict(
        fidelity=FidelityController() if fidelity else None,
        backfill_nodes=backfill,
        tracer=tracer,
        metrics=metrics,
    )
    if clustered:
        autoscaler = None
        if autoscale is not None:
            config = {"slo_ms": slo_ms, **autoscale}
            config["max_replicas"] = config.get("max_replicas") or len(replicas)
            autoscaler = Autoscaler(AutoscaleConfig(**config))
        return ClusterServer(
            cluster,
            replicas,
            nodes,
            scheduler,
            make_router(router, len(replicas)),
            autoscaler=autoscaler,
            **shared,
        )
    if placement == "replicate":
        return ScaleOutServer(replicas, scheduler, make_router(router, len(replicas)), **shared)
    model = replicas[0]
    if placement == "shard":
        require_protocol(model, "async dispatch", "it cannot be sharded")
        partition = make_partition(partitioner, model.dataset.stream, len(replicas), seed=seed)
        model = ShardedModel(replicas, partition)
    return InferenceServer(model, scheduler, overlap=overlap, **shared)
