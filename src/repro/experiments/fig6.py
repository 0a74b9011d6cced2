"""Fig. 6: memory usage and GPU utilization across configurations.

The paper's Fig. 6 has four panels:

* (a) TGAT -- GPU utilization and memory both rise as the number of sampled
  neighbourhood nodes grows;
* (b) TGAT -- GPU utilization stays flat while memory rises as the mini-batch
  grows (sampling on the CPU is the limiter);
* (c) TGN -- GPU utilization falls and memory rises as the batch grows
  (transfers dominate);
* (d) MolDGNN -- GPU utilization stays flat (and tiny) while memory rises with
  the batch.

Each row this experiment produces is one bar of one panel: the configuration,
the peak GPU memory (MB) and the average GPU utilization over one profiled
iteration.  Default sweeps are scaled down from the paper's so the experiment
finishes quickly; pass ``paper_scale=True`` for the published parameter values.
"""

from __future__ import annotations

from .runner import ExperimentResult, Panel, profile_panels

#: One row per panel; TGAT's neighbourhood sweep (a) uses a reduced mini-batch.
PANELS = (
    Panel("a", "tgat", "wikipedia", field="num_neighbors", values=(10, 30, 100, 300),
          fixed={"batch_size": 8}, parameter="sampled_neighbors"),
    Panel("b", "tgat", "wikipedia", field="batch_size", values=(100, 200, 400, 800),
          paper_values=(400, 800, 2000, 4000), fixed={"num_neighbors": 20}),
    Panel("c", "tgn", "wikipedia", field="batch_size", values=(32, 256, 2048, 8192),
          paper_values=(32, 256, 2048, 16384)),
    Panel("d", "moldgnn", "iso17", field="batch_size", values=(32, 256, 1024, 2048),
          paper_values=(32, 256, 2048, 16384)),
)


def run(scale: str = "small", paper_scale: bool = False) -> ExperimentResult:
    """Regenerate all four panels of Fig. 6."""
    result = ExperimentResult(
        experiment="fig6",
        notes=(
            "GPU utilization is the device-busy fraction of one profiled iteration "
            "(warm-up excluded); memory is the peak simulated GPU footprint. "
            "TGAT neighbourhood sweeps use a reduced mini-batch so the largest "
            "neighbourhoods stay laptop-sized; trends match the paper's panels."
        ),
    )
    for point, model, (profile,) in profile_panels(PANELS, scale, paper_scale):
        result.add_row(
            panel=point.panel.panel, model=model.describe().name,
            parameter=point.parameter, value=point.value,
            gpu_utilization=profile.gpu_utilization(),
            gpu_compute_efficiency=profile.gpu_compute_efficiency(),
            memory_mb=profile.peak_memory_mb("gpu"),
            iteration_ms=profile.elapsed_ms,
        )
    return result
