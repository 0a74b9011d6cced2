"""Interconnect topology: every link of a (possibly multi-GPU) machine.

The seed modelled exactly one PCIe link between the host and "the GPU".  A
:class:`Topology` generalizes that to the link complement of an N-GPU node:

* one **host link** (PCIe) per GPU -- each with its own stream set and
  dedicated copy stream, so DMA traffic to different GPUs overlaps exactly as
  it does across the independent PCIe connections of a real multi-GPU board;
* optionally, an all-to-all mesh of **peer links** (NVLink-style) between
  GPU pairs.  When no peer link exists, a GPU<->GPU copy is *staged* through
  the two host links (device -> host -> device), which is the PCIe-only data
  path and costs two transfers instead of one.

A route between two devices is the list of links it crosses, in order:
:meth:`Topology.route` returns one link for host<->GPU and peered GPU<->GPU
copies, and two for staged peer copies.  The
:class:`~repro.hw.machine.Machine` walks the links when scheduling a
transfer; each hop's ``TRANSFER`` row names its source and destination.

On a single-GPU machine the topology degenerates to exactly the seed's shape:
one link carrying the unchanged spec name, so event logs, breakdowns and all
figure/table outputs stay byte-identical.

One :class:`Topology` covers one *node*.  Cross-node routes extend the
staged-peer idea one level up: a :class:`~repro.hw.cluster.Cluster` joins
node pairs with NIC links (Ethernet/InfiniBand presets), and a transfer
between devices of different nodes stages GPU -> host -> NIC -> host -> GPU
-- a hop on this topology's host link, the NIC hop, then a hop on the
destination node's host link -- each hop charged on its own link
timeline with hops serialized.  Intra-node routes are unchanged: a
single-node cluster never consults a NIC and reproduces this module's
routing byte-for-byte.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from .device import Device
from .link import Link
from .spec import LinkSpec


class Topology:
    """The link complement connecting a host CPU and its GPUs.

    Args:
        cpu: The host device.
        gpus: The machine's GPU devices (possibly empty).
        host_link_spec: Spec of each host<->GPU link.  With a single GPU the
            link keeps the spec's name unchanged (seed compatibility); with
            several GPUs the links are named ``"<spec>:<i>"``.
        peer_link_spec: Optional GPU<->GPU link spec.  When given, every GPU
            pair gets a dedicated peer link named ``"<spec>:<i>-<j>"``; when
            ``None``, peer copies stage through the host links.
    """

    def __init__(
        self,
        cpu: Device,
        gpus: Sequence[Device],
        host_link_spec: LinkSpec,
        peer_link_spec: Optional[LinkSpec] = None,
    ) -> None:
        self.cpu = cpu
        self.gpus = tuple(gpus)
        self.host_link_spec = host_link_spec
        self.peer_link_spec = peer_link_spec
        self._host_links: Dict[str, Link] = {}
        if len(self.gpus) <= 1:
            # Seed shape: one link, original spec name.  CPU-only machines
            # keep a (never-used) link too, so ``machine.link`` stays valid.
            only = Link(host_link_spec)
            key = self.gpus[0].name if self.gpus else cpu.name
            self._host_links[key] = only
        else:
            for index, gpu in enumerate(self.gpus):
                spec = replace(host_link_spec, name=f"{host_link_spec.name}:{index}")
                self._host_links[gpu.name] = Link(spec)
        self._peer_links: Dict[Tuple[str, str], Link] = {}
        if peer_link_spec is not None:
            for i, a in enumerate(self.gpus):
                for b in self.gpus[i + 1 :]:
                    spec = replace(
                        peer_link_spec,
                        name=f"{peer_link_spec.name}:{a.name}-{b.name}",
                    )
                    self._peer_links[(a.name, b.name)] = Link(spec)
        #: Memo of :meth:`route` results keyed by (src, dst) device names.
        #: Routes are pure functions of the (immutable) link complement, and
        #: every transfer used to recompute its hop list from scratch.
        self._route_cache: Dict[Tuple[str, str], List[Link]] = {}
        #: Memo for :meth:`link_named` (linear scan otherwise).
        self._links_by_name: Dict[str, Link] = {link.name: link for link in self.links}

    # -- access ---------------------------------------------------------

    @property
    def primary_link(self) -> Link:
        """The host link of the first GPU (the seed's single PCIe link)."""
        if self.gpus:
            return self._host_links[self.gpus[0].name]
        return self._host_links[self.cpu.name]

    @property
    def links(self) -> Tuple[Link, ...]:
        """All links in deterministic order: host links, then peer links."""
        return tuple(self._host_links.values()) + tuple(self._peer_links.values())

    def host_link(self, gpu: Device) -> Link:
        """The host<->GPU link of one GPU."""
        try:
            return self._host_links[gpu.name]
        except KeyError:
            raise KeyError(f"no host link for device {gpu.name!r}") from None

    def peer_link(self, a: Device, b: Device) -> Optional[Link]:
        """The direct peer link between two GPUs, or ``None`` when absent."""
        return self._peer_links.get((a.name, b.name)) or self._peer_links.get((b.name, a.name))

    def link_named(self, name: str) -> Optional[Link]:
        """Look a link up by its (instance) name."""
        return self._links_by_name.get(name)

    # -- routing --------------------------------------------------------

    def route(self, src: Device, dst: Device) -> List[Link]:
        """The links a ``src -> dst`` transfer occupies, in order.

        host<->GPU copies take the GPU's host link; GPU<->GPU copies take the
        direct peer link when one exists and otherwise stage through the two
        host links (the source's, then the destination's).

        Routes are memoized per (src, dst) pair: the link complement never
        changes after construction, so the lookup is a dict hit on every
        transfer after the first.
        """
        key = (src.name, dst.name)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        hops = self._compute_route(src, dst)
        self._route_cache[key] = hops
        return hops

    def _compute_route(self, src: Device, dst: Device) -> List[Link]:
        if src.name == dst.name:
            raise ValueError("transfer requires two distinct devices")
        if src.is_gpu and dst.is_gpu:
            peer = self.peer_link(src, dst)
            if peer is not None:
                return [peer]
            return [self.host_link(src), self.host_link(dst)]
        if dst.is_gpu:
            return [self.host_link(dst)]
        if src.is_gpu:
            return [self.host_link(src)]
        raise ValueError(f"no route between host devices {src.name!r} and {dst.name!r}")

    # -- aggregate views ------------------------------------------------

    @property
    def free_at(self) -> float:
        """Time at which every link stream has drained."""
        return max((link.free_at for link in self.links), default=0.0)
