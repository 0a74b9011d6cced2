"""Simulated host<->device interconnect (PCIe).

The paper identifies CPU<->GPU data movement as one of the four DGNN
bottlenecks (Sec. 4.3): per-snapshot topology reloads (EvolveGCN), adjacency
matrix shuttling (MolDGNN), per-batch raw-message exchange (TGN) and
post-sampling embedding uploads (TGAT) all traverse PCIe.  The :class:`Link`
class models that channel as a single shared resource with latency and
bandwidth, and keeps its own busy timeline so the profiler can attribute
"Memory Copy" time exactly as Nsight does.
"""

from __future__ import annotations

from typing import Dict

from .spec import LinkSpec
from .stream import Stream, StreamSet
from .timeline import Timeline

#: Entries :attr:`Link._transfer_ms_cache` may hold before it is cleared
#: wholesale (a pure function of the payload size, so nothing is lost).
_TRANSFER_CACHE_LIMIT = 4096


class Link:
    """A bidirectional host<->device link.

    The link owns a set of transfer streams.  Blocking copies serialize on the
    ``"default"`` stream (the seed's single shared link queue); non-blocking
    copies go through the machine's dedicated copy stream, modelling the
    separate DMA engine that pinned-memory transfers use on real hardware.
    """

    def __init__(self, spec: LinkSpec) -> None:
        self.spec = spec
        self.streams = StreamSet(spec.name)
        # Cached identity (the spec is frozen); read on every transfer.
        self.name: str = spec.name
        self.default_stream: Stream = self.streams.default
        #: Bytes booked over the link, all directions (its ``TRANSFER`` rows
        #: say which way each payload went).
        self.total_bytes = 0
        #: Memo of per-size transfer durations: serving workloads move the
        #: same few payload shapes over and over.
        self._transfer_ms_cache: Dict[int, float] = {}

    def stream(self, name: str) -> Stream:
        """Look up (creating on first use) a named transfer stream."""
        return self.streams.stream(name)

    @property
    def timeline(self) -> Timeline:
        """The default stream's timeline (the seed's single link queue)."""
        return self.streams.default.timeline

    @property
    def free_at(self) -> float:
        """Time at which all of the link's streams have drained."""
        return self.streams.free_at

    def transfer_ms(self, nbytes: int) -> float:
        """Duration of a transfer of ``nbytes`` bytes."""
        cached = self._transfer_ms_cache.get(nbytes)
        if cached is None:
            cached = self.spec.transfer_ms(nbytes)
            if len(self._transfer_ms_cache) >= _TRANSFER_CACHE_LIMIT:
                self._transfer_ms_cache.clear()
            self._transfer_ms_cache[nbytes] = cached
        return cached

    def book(self, nbytes: int, stream: Stream) -> float:
        """Record one transfer's volume; returns how long it occupies ``stream``.

        ``stream`` must be one of this link's.  The machine reserves the
        returned duration (``Machine._charge``).
        """
        if stream.resource != self.name:
            raise ValueError(
                f"stream {stream.name!r} belongs to {stream.resource!r}, "
                f"not to link {self.name!r}"
            )
        self.total_bytes += nbytes
        return self.transfer_ms(nbytes)

    # -- statistics -----------------------------------------------------

    def busy_ms(self, start_ms: float | None = None, end_ms: float | None = None) -> float:
        """Union busy time across all link streams."""
        return self.streams.busy_ms(start_ms, end_ms)
