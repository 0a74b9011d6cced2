"""Workload generators: arrival processes over a dataset's event stream.

Online DGNN serving is driven by *traffic*: requests arriving at simulated
wall-clock times, each asking the model to score a small slice of the event
stream.  Three arrival processes cover the shapes the serving experiments
sweep:

* :class:`PoissonProcess` -- memoryless arrivals at a target mean rate, the
  canonical open-loop load model;
* :class:`BurstyProcess` -- an on/off modulated Poisson process (short
  high-rate bursts over a low background rate) with the same long-run mean
  rate, which is what stresses tail latency and SLO-aware batching;
* :class:`TraceReplay` -- deterministic replay of the dataset's own
  interaction timestamps, rescaled to a target mean rate, so the serving
  load inherits the burstiness the synthetic datasets already model;
* :class:`DiurnalProcess` -- a sinusoidal rate curve (day/night cycle
  compressed to a configurable period) sampled exactly via thinning, the
  slow load swing an autoscaler should track with few scale events;
* :class:`FlashCrowdProcess` -- a flat baseline interrupted by one sudden
  high-rate window (a flash crowd), the step change that separates elastic
  fleets from statically provisioned ones.

Every process draws from one seeded :class:`random.Random` and is fully
reproducible from its ``seed``; :func:`generate_requests` couples a process
with an :class:`~repro.graph.events.EventStream` to produce the concrete
:class:`~repro.serve.request.Request` list a server run consumes.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional, Sequence

from .._compat import ordered_sum
from ..domain import NON_NEGATIVE, POSITIVE, POSITIVE_INT, PROBABILITY, Domain
from ..graph.events import EventStream
from .request import Request


class ArrivalProcess:
    """Base class: a seeded generator of request arrival times (ms)."""

    #: Registry name; subclasses override.
    name: str = "arrivals"

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        self.rate_per_s = float(POSITIVE.check("rate_per_s", rate_per_s))
        self.seed = int(seed)
        self.rng = random.Random(seed)

    def inter_arrival_ms(self) -> float:
        """Gap to the next arrival; subclasses implement the process."""
        raise NotImplementedError

    def arrival_times_ms(
        self, duration_ms: float, max_requests: Optional[int] = None
    ) -> Iterator[float]:
        """Arrival times in ``[0, duration_ms)``, at most ``max_requests``."""
        POSITIVE.check("duration_ms", duration_ms)
        now = 0.0
        count = 0
        while True:
            now += self.inter_arrival_ms()
            if now >= duration_ms:
                return
            if max_requests is not None and count >= max_requests:
                return
            yield now
            count += 1


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at the mean rate."""

    name = "poisson"

    def inter_arrival_ms(self) -> float:
        return self.rng.expovariate(self.rate_per_s) * 1000.0


class BurstyProcess(ArrivalProcess):
    """On/off modulated Poisson arrivals with the same long-run mean rate.

    The process alternates between exponentially distributed *on* phases
    (mean ``on_ms``) at an elevated rate and *off* phases (mean ``off_ms``)
    at a low background rate.  The two phase rates are solved so the
    time-weighted mean equals ``rate_per_s``, making bursty and Poisson runs
    directly comparable at the same nominal load.
    """

    name = "bursty"

    def __init__(
        self,
        rate_per_s: float,
        seed: int = 0,
        on_ms: float = 50.0,
        off_ms: float = 150.0,
        off_rate_fraction: float = 0.2,
    ) -> None:
        super().__init__(rate_per_s, seed=seed)
        self.on_ms = float(POSITIVE.check("on_ms", on_ms))
        self.off_ms = float(POSITIVE.check("off_ms", off_ms))
        Domain(0, 1, hi_open=True).check("off_rate_fraction", off_rate_fraction)
        on_fraction = on_ms / (on_ms + off_ms)
        self.off_rate = rate_per_s * off_rate_fraction
        # Solve on_rate so that on_fraction*on + (1-on_fraction)*off == rate.
        self.on_rate = (rate_per_s - self.off_rate * (1.0 - on_fraction)) / on_fraction
        self._in_burst = False
        self._phase_remaining_ms = 0.0

    def inter_arrival_ms(self) -> float:
        gap = 0.0
        while True:
            if self._phase_remaining_ms <= 0.0:
                self._in_burst = not self._in_burst
                mean = self.on_ms if self._in_burst else self.off_ms
                self._phase_remaining_ms = self.rng.expovariate(1.0 / mean)
            rate = self.on_rate if self._in_burst else self.off_rate
            if rate <= 0.0:
                # Silent phase: skip to the next phase boundary.
                gap += self._phase_remaining_ms
                self._phase_remaining_ms = 0.0
                continue
            candidate = self.rng.expovariate(rate) * 1000.0
            if candidate <= self._phase_remaining_ms:
                self._phase_remaining_ms -= candidate
                return gap + candidate
            # The draw fell past the phase boundary: consume the phase and
            # redraw in the next one (memorylessness makes this exact).
            gap += self._phase_remaining_ms
            self._phase_remaining_ms = 0.0


class DiurnalProcess(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (a compressed day/night cycle).

    The instantaneous rate follows ``rate * (1 + a*sin(2*pi*t/period))`` with
    ``a = 1 - trough_fraction``, so load swings between ``trough_fraction``
    and ``2 - trough_fraction`` times the nominal rate while the time-averaged
    rate over a full period stays exactly ``rate_per_s``.  Arrivals are drawn
    by Ogata thinning against the peak rate, which samples the inhomogeneous
    Poisson process exactly (no discretization of the rate curve).
    """

    name = "diurnal"

    def __init__(
        self,
        rate_per_s: float,
        seed: int = 0,
        period_ms: float = 4000.0,
        trough_fraction: float = 0.25,
    ) -> None:
        super().__init__(rate_per_s, seed=seed)
        self.period_ms = float(POSITIVE.check("period_ms", period_ms))
        self.trough_fraction = float(PROBABILITY.check("trough_fraction", trough_fraction))
        self.amplitude = 1.0 - self.trough_fraction
        self.peak_rate = rate_per_s * (1.0 + self.amplitude)
        self._now_ms = 0.0

    def rate_at(self, t_ms: float) -> float:
        """The instantaneous arrival rate (per second) at absolute time ``t_ms``."""
        phase = math.sin(2.0 * math.pi * t_ms / self.period_ms)
        return self.rate_per_s * (1.0 + self.amplitude * phase)

    def inter_arrival_ms(self) -> float:
        start = self._now_ms
        t = start
        while True:
            # Candidate from the homogeneous peak-rate process; accept with
            # probability rate(t)/peak.  Rejected candidates still advance t
            # (they are the thinned-out points of the dominating process).
            t += self.rng.expovariate(self.peak_rate) * 1000.0
            if self.rng.random() * self.peak_rate <= self.rate_at(t):
                self._now_ms = t
                return t - start


class FlashCrowdProcess(ArrivalProcess):
    """Poisson baseline interrupted by one sudden high-rate window.

    Arrivals are memoryless at ``rate_per_s`` everywhere except the window
    ``[flash_at_ms, flash_at_ms + flash_duration_ms)``, where the rate jumps
    to ``flash_multiplier`` times the baseline -- the canonical flash-crowd
    step that a statically provisioned fleet must size for and an elastic
    fleet can absorb by scaling out.  The window boundaries are deterministic;
    a draw that falls past a boundary is consumed up to it and redrawn at the
    new segment's rate, which is exact by memorylessness (the same discipline
    as :class:`BurstyProcess`, with fixed rather than random phase edges).
    """

    name = "flash-crowd"

    def __init__(
        self,
        rate_per_s: float,
        seed: int = 0,
        flash_at_ms: float = 1000.0,
        flash_duration_ms: float = 500.0,
        flash_multiplier: float = 8.0,
    ) -> None:
        super().__init__(rate_per_s, seed=seed)
        self.flash_at_ms = float(NON_NEGATIVE.check("flash_at_ms", flash_at_ms))
        self.flash_duration_ms = float(POSITIVE.check("flash_duration_ms", flash_duration_ms))
        self.flash_multiplier = float(Domain(1).check("flash_multiplier", flash_multiplier))
        self._now_ms = 0.0

    def rate_at(self, t_ms: float) -> float:
        """The instantaneous arrival rate (per second) at absolute time ``t_ms``."""
        if self.flash_at_ms <= t_ms < self.flash_at_ms + self.flash_duration_ms:
            return self.rate_per_s * self.flash_multiplier
        return self.rate_per_s

    def _segment(self, t_ms: float):
        """The (rate, next boundary) of the segment containing ``t_ms``."""
        if t_ms < self.flash_at_ms:
            return self.rate_per_s, self.flash_at_ms
        flash_end = self.flash_at_ms + self.flash_duration_ms
        if t_ms < flash_end:
            return self.rate_per_s * self.flash_multiplier, flash_end
        return self.rate_per_s, None

    def inter_arrival_ms(self) -> float:
        start = self._now_ms
        t = start
        while True:
            rate, boundary = self._segment(t)
            candidate = self.rng.expovariate(rate) * 1000.0
            if boundary is None or t + candidate < boundary:
                self._now_ms = t + candidate
                return self._now_ms - start
            # The draw fell past a window edge: consume up to the edge and
            # redraw at the next segment's rate (exact by memorylessness).
            t = boundary


class TraceReplay(ArrivalProcess):
    """Deterministic replay of recorded timestamps at a target mean rate.

    The gaps between consecutive trace timestamps are rescaled so the whole
    trace spans ``len(trace)/rate_per_s`` seconds, then replayed in order
    (cycling when exhausted).  No randomness is consumed, so two replays are
    identical regardless of seed.
    """

    name = "trace"

    def __init__(self, rate_per_s: float, trace_timestamps: Sequence[float], seed: int = 0) -> None:
        super().__init__(rate_per_s, seed=seed)
        gaps = [float(b) - float(a) for a, b in zip(trace_timestamps[:-1], trace_timestamps[1:])]
        gaps = [g for g in gaps if g >= 0.0]
        if not gaps:
            raise ValueError("trace replay needs at least two ordered timestamps")
        mean_gap = ordered_sum(gaps) / len(gaps)
        target_mean_ms = 1000.0 / rate_per_s
        scale = target_mean_ms / mean_gap if mean_gap > 0 else 0.0
        self._gaps_ms = [g * scale if mean_gap > 0 else target_mean_ms for g in gaps]
        self._cursor = 0

    def inter_arrival_ms(self) -> float:
        gap = self._gaps_ms[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._gaps_ms)
        return gap


#: Arrival-process registry for the CLI / experiment sweeps.
ARRIVAL_PROCESSES = {
    PoissonProcess.name: PoissonProcess,
    BurstyProcess.name: BurstyProcess,
    DiurnalProcess.name: DiurnalProcess,
    FlashCrowdProcess.name: FlashCrowdProcess,
    TraceReplay.name: TraceReplay,
}


def available_arrivals() -> List[str]:
    return sorted(ARRIVAL_PROCESSES)


def make_arrival_process(
    name: str,
    rate_per_s: float,
    seed: int = 0,
    trace_timestamps: Optional[Sequence[float]] = None,
    **kwargs,
) -> ArrivalProcess:
    """Build an arrival process by registry name.

    Extra keyword arguments are forwarded to the process constructor (e.g.
    ``flash_at_ms`` for ``flash-crowd``, ``period_ms`` for ``diurnal``);
    trace replay takes none and refuses any.
    """
    key = name.lower()
    if key not in ARRIVAL_PROCESSES:
        raise KeyError(
            f"unknown arrival process {name!r}; available: {', '.join(available_arrivals())}"
        )
    if key == TraceReplay.name:
        if trace_timestamps is None:
            raise ValueError("trace replay needs trace_timestamps")
        if kwargs:
            raise ValueError(
                f"trace replay takes no arrival parameters; got {', '.join(sorted(kwargs))}"
            )
        return TraceReplay(rate_per_s, trace_timestamps, seed=seed)
    return ARRIVAL_PROCESSES[key](rate_per_s, seed=seed, **kwargs)


def generate_requests(
    stream: EventStream,
    arrivals: ArrivalProcess,
    duration_ms: float,
    events_per_request: int = 1,
    slo_ms: Optional[float] = None,
) -> List[Request]:
    """Materialise the request list one server run will serve.

    Request ``k`` carries the ``k``-th consecutive ``events_per_request``
    slice of ``stream``, so any batch of queued requests concatenates into a
    time-ordered event stream (the constraint
    :meth:`~repro.graph.events.EventStream.concat` enforces).  Generation
    stops at ``duration_ms`` or when the stream runs out of slices --
    wrapping around would break temporal ordering inside a batch.  A
    ``slo_ms`` that is neither ``None`` nor a positive finite number would
    make every request late, so it is refused before any arrival is drawn.
    """
    POSITIVE_INT.check("events_per_request", events_per_request)
    if slo_ms is not None:
        POSITIVE.check("slo_ms", slo_ms)
    max_requests = stream.num_events // events_per_request
    requests: List[Request] = []
    for index, arrival in enumerate(
        arrivals.arrival_times_ms(duration_ms, max_requests=max_requests)
    ):
        start = index * events_per_request
        payload = stream.slice_indices(start, start + events_per_request)
        requests.append(
            Request(
                request_id=index,
                arrival_ms=arrival,
                payload=payload,
                num_events=payload.num_events,
                slo_ms=slo_ms,
            )
        )
    return requests


def make_requests(
    stream: EventStream,
    arrival: str,
    rate_per_s: float,
    duration_ms: float,
    seed: int = 0,
    events_per_request: int = 1,
    slo_ms: Optional[float] = None,
    **arrival_params,
) -> List[Request]:
    """The request list of one named arrival process over ``stream``.

    :func:`make_arrival_process` then :func:`generate_requests`; trace
    replay reads the stream's own timestamps.
    """
    arrivals = make_arrival_process(
        arrival,
        rate_per_s,
        seed=seed,
        trace_timestamps=stream.timestamps if arrival.lower() == TraceReplay.name else None,
        **arrival_params,
    )
    return generate_requests(
        stream,
        arrivals,
        duration_ms=duration_ms,
        events_per_request=events_per_request,
        slo_ms=slo_ms,
    )
