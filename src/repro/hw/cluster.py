"""Multi-node cluster: N machines in one simulated time frame, joined by NICs.

The single-box :class:`~repro.hw.machine.Machine` stops at the PCIe/NVLink
complement of one node.  A :class:`Cluster` composes several of them -- each
node a full machine with its own host thread (clock), GPUs, links and memory
pools -- and adds one NIC :class:`~repro.hw.link.Link` per node pair
(Ethernet or InfiniBand presets, see :class:`~repro.hw.spec.ClusterSpec`).

Time frame.  All node machines start at host time 0 and their clocks advance
only through work issued on them, so every node's ``host_time_ms`` is a
position in one shared cluster time frame.  Node clocks are allowed to lag
each other (an idle node's host simply has not been asked to do anything
yet); whoever coordinates work across nodes -- the cluster serving loop, the
autoscaler -- aligns a lagging node forward via :meth:`sync_node` before
handing it work timestamped "now".  Clocks never move backwards.

Cross-node transfers.  :meth:`Cluster.transfer` stages a payload over the
full route GPU -> host -> NIC -> host -> GPU:

* a hop on the source GPU's host link (skipped for host-resident payloads),
* one hop on the node-pair NIC link, a peer channel between the two node
  hosts,
* a hop on the destination GPU's host link (skipped for host-destined
  payloads).

Each hop's ``TRANSFER`` row names its source and destination; the links
count only their total bytes (:meth:`Cluster.nic_bytes`).

Each hop is charged on its link's timeline with the link's own
bandwidth/latency, hops serialize (a later hop cannot start before the
earlier one has landed), and the issuing node's host cursor pays the
per-hop issue overhead -- the same non-blocking charging discipline as
:meth:`Machine.transfer`.  Intra-node transfers (same node index) delegate
to that node machine's own :meth:`~repro.hw.machine.Machine.transfer`, so a
single-node cluster never touches a NIC and stays byte-identical to the
plain machine.
"""

from __future__ import annotations

import math
from dataclasses import replace as _spec_replace
from typing import Dict, Optional, Tuple, Union

from .device import Device
from .events import TRANSFER
from .link import Link
from .machine import Machine
from .spec import ClusterSpec, cluster_spec
from .stream import Stream


class Cluster:
    """N identical node machines plus all-to-all NIC links between them."""

    def __init__(
        self,
        spec: Union[str, ClusterSpec],
        backend: str = "numeric",
    ) -> None:
        resolved = cluster_spec(spec)
        self.spec = resolved
        self.backend = backend
        self.nodes: Tuple[Machine, ...] = tuple(
            Machine.from_spec(resolved.node, backend=backend)
            for _ in range(resolved.num_nodes)
        )
        #: One NIC link per node pair, named ``"<nic>:<i>-<j>"`` (i < j).
        #: Absent entirely on a single-node cluster.
        self._nic_links: Dict[Tuple[int, int], Link] = {}
        for i in range(resolved.num_nodes):
            for j in range(i + 1, resolved.num_nodes):
                nic = _spec_replace(resolved.nic, name=f"{resolved.nic.name}:{i}-{j}")
                self._nic_links[(i, j)] = Link(nic)

    # -- access ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_gpus(self) -> int:
        return sum(node.num_gpus for node in self.nodes)

    def node(self, index: int) -> Machine:
        return self.nodes[index]

    def nic_link(self, a: int, b: int) -> Link:
        """The NIC link between two distinct nodes."""
        if a == b:
            raise ValueError("no NIC link between a node and itself")
        key = (a, b) if a < b else (b, a)
        try:
            return self._nic_links[key]
        except KeyError:
            raise KeyError(f"no NIC link between nodes {a} and {b}") from None

    @property
    def nic_links(self) -> Tuple[Link, ...]:
        return tuple(self._nic_links.values())

    # -- time ------------------------------------------------------------

    @property
    def time_ms(self) -> float:
        """The cluster-frame frontier: the most advanced node host clock."""
        return max(node.host_time_ms for node in self.nodes)

    @property
    def host_time_ms(self) -> float:
        """Alias for :attr:`time_ms`, duck-compatible with :class:`Machine`
        consumers that read ``host_time_ms`` and ``event_count`` off
        whatever a workload returns."""
        return self.time_ms

    def sync_node(self, index: int, to_ms: float) -> Machine:
        """Align one (possibly lagging) node's host clock to cluster time.

        A no-op when the node is already at or past ``to_ms`` -- node clocks
        are monotone and never rewound.  Returns the node machine.
        """
        node = self.nodes[index]
        if to_ms > node.host_time_ms:
            node.advance_host(to_ms - node.host_time_ms)
        return node

    def sync_all(self, to_ms: float) -> float:
        """Align every node to ``to_ms``.

        Used after cluster-wide barriers such as warm-up: every node's next
        action starts from one common instant.  Returns the aligned time.
        """
        for index in range(self.num_nodes):
            self.sync_node(index, to_ms)
        return to_ms

    def synchronize(self, name: str = "cluster_sync") -> float:
        """Cluster-wide barrier: drain every node, every NIC, align clocks.

        :meth:`sync_all` only *aligns clocks* to a target instant; payloads
        still in flight on a NIC link (issued non-blocking, so no node's
        host ever waited on them) stay in flight right through it, which
        makes it unsound as a barrier.  This is the real barrier: every
        node joins all of its own streams and links, the frontier is pushed
        past every NIC link's busy horizon, and all node clocks land on it.
        Afterwards nothing anywhere in the cluster is scheduled past the
        returned barrier time.  (Found by the fuzz harness: see
        ``tests/fuzz_corpus/nic_barrier_drain.json``.)
        """
        for node in self.nodes:
            node.synchronize(name=name)
        target = max(
            self.time_ms,
            max((link.free_at for link in self._nic_links.values()), default=0.0),
        )
        return self.sync_all(target)

    # -- event totals ----------------------------------------------------

    @property
    def event_count(self) -> int:
        """Total simulated actions across all node machines."""
        return sum(node.event_count for node in self.nodes)

    # -- cross-node transfers --------------------------------------------

    def transfer(
        self,
        src_node: int,
        src: Device,
        dst_node: int,
        dst: Device,
        nbytes: int,
        name: str = "nic_memcpy",
        ready_ms: Optional[float] = None,
        stream: Optional[Stream] = None,
    ) -> float:
        """Move ``nbytes`` between devices of two nodes; returns arrival time.

        Cross-node payloads stage GPU -> host -> NIC -> host -> GPU: a hop
        on the source GPU's host link, the NIC hop, then a hop on the
        destination GPU's host link, each charged on its
        link timeline and serialized after the previous hop.  Host-resident
        endpoints skip their GPU-side hop.  The *source* node's host issues
        the transfer asynchronously (it pays each hop's issue overhead but
        never blocks), mirroring :meth:`Machine.transfer`'s non-blocking
        path; the returned arrival time is when the payload lands at the
        destination, in the shared cluster time frame.

        ``ready_ms`` floors the start time (defaults to the source node's
        host clock); ``stream`` names a NIC-link stream for the NIC hop.
        Same-node transfers delegate to the node machine's own
        :meth:`~repro.hw.machine.Machine.transfer` and never touch a NIC.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be non-negative and finite")
        source = self.nodes[src_node]
        issue_ms = source.host_time_ms if ready_ms is None else max(ready_ms, 0.0)
        if src_node == dst_node:
            if src == dst:
                raise ValueError("transfer requires two distinct endpoints")
            source.transfer(src, dst, nbytes, name=name, non_blocking=True, stream=stream)
            return source.topology.route(src, dst)[-1].free_at
        target_machine = self.nodes[dst_node]
        nic = self.nic_link(src_node, dst_node)
        # The route as ``(issuing node, link, stream, src, dst)`` hops; a
        # host-resident endpoint skips its GPU-side hop.
        hops = []
        if src.is_gpu:
            link = source.topology.host_link(src)
            hops.append((source, link, link.default_stream, src.name, source.cpu.name))
        hops.append(
            (source, nic, stream if stream is not None else nic.default_stream,
             source.cpu.name, target_machine.cpu.name)
        )
        if dst.is_gpu:
            link = target_machine.topology.host_link(dst)
            hops.append(
                (target_machine, link, link.default_stream, target_machine.cpu.name, dst.name)
            )
        ready = issue_ms
        for machine, link, target, src_name, dst_name in hops:
            if machine is not source:
                # The last hop is issued by the destination node's host on
                # payload arrival: its clock is synced forward to the arrival
                # instant first (receiving work can never happen in its past).
                self.sync_node(dst_node, ready)
            duration_ms = link.book(nbytes, target)
            machine.advance_host(link.spec.host_overhead_us * 1e-3)
            ready = machine._charge(
                TRANSFER, name, link.name, target, ready, duration_ms, False,
                nbytes, src_name, dst_name,
            )
        return ready

    # -- reporting -------------------------------------------------------

    def nic_bytes(self) -> int:
        """Total bytes moved over all NIC links."""
        return sum(link.total_bytes for link in self._nic_links.values())

    def describe(self) -> str:
        return (
            f"{self.spec.name}({self.num_nodes}x{self.spec.node.name} "
            f"over {self.spec.nic.name})"
        )
