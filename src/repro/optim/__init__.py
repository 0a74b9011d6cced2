"""Implementations and analytic estimators for the paper's Sec. 5 optimization
proposals: cross-time-step pipelining, sampling/compute overlap and delta
snapshot transfer."""

from .delta_transfer import compare_delta_transfer
from .overlap import OverlappedRunner, estimate_overlap_speedup
from .pipelining import PipelinedEvolveGCN, PipelineEstimate, estimate_pipeline_speedup

__all__ = [
    "OverlappedRunner",
    "PipelineEstimate",
    "PipelinedEvolveGCN",
    "compare_delta_transfer",
    "estimate_overlap_speedup",
    "estimate_pipeline_speedup",
]
