"""End-to-end observability: request spans, timeline export, attribution.

The serving stack (PRs 3-9) spans multi-GPU nodes, NIC-linked clusters,
elastic fleets and fidelity levers, but its telemetry stops at aggregates --
percentiles and busy fractions.  This package adds the per-request view the
paper builds by hand:

* :mod:`repro.obs.trace` -- a span :class:`Tracer` the servers feed: every
  request gets queue/service spans (plus sample/compute/NIC children)
  stamped with simulated-clock times; what ran stays in each machine's
  event log, which the exporter and attribution read.  Tracing is
  strictly read-only with respect to the simulation: tracer off means zero
  objects on the serving hot path and event-for-event identical runs
  (regression-tested and covered by the ``trace-conservation`` fuzz
  invariant).
* :mod:`repro.obs.metrics` -- a counters/gauges/histograms registry
  snapshotted on the simulated clock, feeding ``ServingReport.metrics``.
* :mod:`repro.obs.export` -- Chrome trace-event / Perfetto JSON export of
  the :class:`~repro.hw.machine.Machine`/:class:`~repro.hw.Cluster`
  timeline (streams as tracks, kernels/transfers/NIC hops as duration
  events, scale/invalidation/fidelity changes as instants) with request
  spans as flows, behind ``serve --trace`` / ``profile --trace``.
* :mod:`repro.obs.critical_path` -- the ``repro-dgnn trace`` subcommand's
  engine: decompose any request's latency (notably the p99 request) into
  queue/NIC/sample/compute/cache segments that sum to the total, print
  top-k span tables, diff two trace files.
"""

from .critical_path import (
    attribute_request,
    diff_traces,
    format_breakdown,
    format_diff,
    format_top_spans,
    pick_request,
    top_spans,
)
from .export import build_trace, export_trace, validate_trace, validate_trace_file
from .metrics import MetricsRegistry, record_completion, record_dispatch
from .trace import EPS_MS, Span, Tracer

__all__ = [
    "EPS_MS",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "attribute_request",
    "build_trace",
    "diff_traces",
    "export_trace",
    "format_breakdown",
    "format_diff",
    "format_top_spans",
    "pick_request",
    "record_completion",
    "record_dispatch",
    "top_spans",
    "validate_trace",
    "validate_trace_file",
]
