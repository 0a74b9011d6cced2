"""Cluster-scale serving: replicas spanning nodes, routed over NICs.

:class:`ClusterServer` is :class:`~repro.serve.core.ServingCore` over a
multi-node :class:`~repro.hw.Cluster`: node 0 is the front-end, batches
routed to remote replicas cross the NIC, and an optional
:class:`~repro.serve.autoscale.Autoscaler` makes the active fleet elastic.
On a one-node cluster it is event-for-event the scale-out server.  See
:mod:`repro.serve.core` for the loop and the remote dispatch path.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..domain import Domain
from ..hw.cluster import Cluster
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .autoscale import Autoscaler
from .core import ServingCore
from .fidelity import FidelityController
from .placement import build_replicas, share_tape_books
from .policy import SchedulerPolicy
from .request import Request
from .router import Router
from .telemetry import ServingReport


def build_cluster_replicas(
    cluster: Cluster,
    factory: Any,
) -> Tuple[List[Any], List[int]]:
    """One model replica per GPU across every node of the cluster.

    ``factory`` is called as ``factory(machine)`` -- once per GPU, with the
    owning node's machine -- inside that machine's placement context, so
    each replica's weights and kernels land on its own node and device (see
    :func:`~repro.serve.placement.build_replicas`).  Like replicas share
    one tape book across nodes too (:func:`share_tape_books`).  Returns
    ``(replicas, replica_nodes)``: the flat replica list (node-major,
    GPU-minor) and each replica's owning node index.
    """
    replicas: List[Any] = []
    nodes: List[int] = []
    for node_index, machine in enumerate(cluster.nodes):
        with machine.activate():
            built = build_replicas(machine, lambda: factory(machine))
        replicas.extend(built)
        nodes.extend([node_index] * len(built))
    share_tape_books(replicas)
    return replicas, nodes


class ClusterServer(ServingCore):
    """Serves a request list against replicas spread over a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        replicas: Sequence[Any],
        replica_nodes: Sequence[int],
        policy: SchedulerPolicy,
        router: Router,
        autoscaler: Optional[Autoscaler] = None,
        fidelity: Optional[FidelityController] = None,
        backfill_nodes: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if len(replica_nodes) != len(replicas):
            raise ValueError("replica_nodes must map every replica to a node")
        nodes = Domain(0, cluster.num_nodes, hi_open=True, integer=True)
        for replica, node_index in zip(replicas, replica_nodes):
            nodes.check("replica node", node_index)
            if replica.machine is not cluster.nodes[node_index]:
                raise ValueError("replica is not placed on its declared node's machine")
        super().__init__(
            replicas,
            policy,
            router=router,
            cluster=cluster,
            replica_nodes=replica_nodes,
            autoscaler=autoscaler,
            fidelity=fidelity,
            backfill_nodes=backfill_nodes,
            tracer=tracer,
            metrics=metrics,
        )

    # In the class body: benchmarks/spans.py times ``serve`` only where ``"serve" in cls.__dict__``.
    def serve(
        self,
        requests: Sequence[Request],
        label: str = "serve-cluster",
        arrival_name: str = "trace",
        warm_up: bool = True,
    ) -> ServingReport:
        """Serve ``requests`` to completion and return the telemetry report."""
        return super().serve(requests, label, arrival_name, warm_up)
