"""repro: reproduction of "Bottleneck Analysis of Dynamic Graph Neural Network
Inference on CPU and GPU" (IISWC 2022).

The package is organised bottom-up:

* :mod:`repro.hw`          -- simulated Xeon 6226R + RTX A6000 platform;
* :mod:`repro.tensor`      -- device-placed numpy tensors with cost accounting;
* :mod:`repro.nn`          -- the NN layers the profiled DGNNs are built from;
* :mod:`repro.graph`       -- discrete/continuous dynamic-graph substrates;
* :mod:`repro.datasets`    -- seeded synthetic stand-ins for the paper's datasets;
* :mod:`repro.models`      -- the eight profiled DGNNs;
* :mod:`repro.core`        -- profiler, breakdowns, utilization, warm-up and
  bottleneck analysis (the paper's methodology);
* :mod:`repro.optim`       -- the Sec. 5 optimization proposals;
* :mod:`repro.serve`       -- simulated online inference serving (workload
  generators, dynamic batching, SLO-aware scheduling, latency telemetry);
* :mod:`repro.experiments` -- harnesses regenerating every table and figure.
"""

from . import core, datasets, experiments, graph, hw, models, nn, optim, serve, tensor
from .core import Profile, Profiler, analyze_profile, compute_breakdown
from .hw import Machine
from .models import available_models, build_model

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "Profile",
    "Profiler",
    "analyze_profile",
    "available_models",
    "build_model",
    "compute_breakdown",
    "core",
    "datasets",
    "experiments",
    "graph",
    "hw",
    "models",
    "nn",
    "optim",
    "serve",
    "tensor",
    "__version__",
]
