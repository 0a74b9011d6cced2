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

from typing import Dict, Optional, Sequence

from ..datasets import load as load_dataset
from ..models import MolDGNNConfig, TGATConfig, TGNConfig
from ..models.moldgnn import MolDGNN
from ..models.tgat import TGAT
from ..models.tgn import TGN
from .runner import ExperimentResult, new_machine, profile_single_iteration

#: Qualitative expectations from the paper, used by EXPERIMENTS.md and tests.
PAPER_TRENDS: Dict[str, str] = {
    "tgat_neighbors": "utilization and memory both increase with sampled-neighbour count",
    "tgat_batch": "utilization stays roughly flat while memory increases with mini-batch size",
    "tgn_batch": "utilization decreases while memory increases with batch size",
    "moldgnn_batch": "utilization stays roughly flat while memory increases with batch size",
}

DEFAULT_TGAT_NEIGHBORS = (10, 30, 100, 300)
DEFAULT_TGAT_BATCHES = (100, 200, 400, 800)
DEFAULT_TGN_BATCHES = (32, 256, 2048, 8192)
DEFAULT_MOLDGNN_BATCHES = (32, 256, 1024, 2048)

PAPER_TGAT_NEIGHBORS = (10, 30, 100, 300)
PAPER_TGAT_BATCHES = (400, 800, 2000, 4000)
PAPER_TGN_BATCHES = (32, 256, 2048, 16384)
PAPER_MOLDGNN_BATCHES = (32, 256, 2048, 16384)


def run(
    scale: str = "small",
    paper_scale: bool = False,
    tgat_neighbors: Optional[Sequence[int]] = None,
    tgat_batches: Optional[Sequence[int]] = None,
    tgn_batches: Optional[Sequence[int]] = None,
    moldgnn_batches: Optional[Sequence[int]] = None,
    tgat_sweep_batch_size: int = 8,
) -> ExperimentResult:
    """Regenerate all four panels of Fig. 6."""
    tgat_neighbors = tuple(
        tgat_neighbors or (PAPER_TGAT_NEIGHBORS if paper_scale else DEFAULT_TGAT_NEIGHBORS)
    )
    tgat_batches = tuple(
        tgat_batches or (PAPER_TGAT_BATCHES if paper_scale else DEFAULT_TGAT_BATCHES)
    )
    tgn_batches = tuple(tgn_batches or (PAPER_TGN_BATCHES if paper_scale else DEFAULT_TGN_BATCHES))
    moldgnn_batches = tuple(
        moldgnn_batches or (PAPER_MOLDGNN_BATCHES if paper_scale else DEFAULT_MOLDGNN_BATCHES)
    )

    result = ExperimentResult(
        experiment="fig6",
        notes=(
            "GPU utilization is the device-busy fraction of one profiled iteration "
            "(warm-up excluded); memory is the peak simulated GPU footprint. "
            "TGAT neighbourhood sweeps use a reduced mini-batch so the largest "
            "neighbourhoods stay laptop-sized; trends match the paper's panels."
        ),
    )

    wikipedia = load_dataset("wikipedia", scale=scale)
    iso17 = load_dataset("iso17", scale=scale)

    # (a) TGAT: sweep the sampled-neighbour count.
    for neighbors in tgat_neighbors:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = TGAT(
                machine, wikipedia,
                TGATConfig(num_neighbors=neighbors, batch_size=tgat_sweep_batch_size),
            )
        profile, _ = profile_single_iteration(model, machine, label=f"tgat-k{neighbors}")
        result.add_row(
            panel="a", model="TGAT", parameter="sampled_neighbors", value=neighbors,
            gpu_utilization=profile.gpu_utilization(),
            gpu_compute_efficiency=profile.gpu_compute_efficiency(),
            memory_mb=profile.peak_memory_mb("gpu"),
            iteration_ms=profile.elapsed_ms,
        )

    # (b) TGAT: sweep the mini-batch size at a fixed neighbourhood.
    for batch_size in tgat_batches:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = TGAT(machine, wikipedia, TGATConfig(num_neighbors=20, batch_size=batch_size))
        profile, _ = profile_single_iteration(model, machine, label=f"tgat-b{batch_size}")
        result.add_row(
            panel="b", model="TGAT", parameter="batch_size", value=batch_size,
            gpu_utilization=profile.gpu_utilization(),
            gpu_compute_efficiency=profile.gpu_compute_efficiency(),
            memory_mb=profile.peak_memory_mb("gpu"),
            iteration_ms=profile.elapsed_ms,
        )

    # (c) TGN: sweep the batch size.
    for batch_size in tgn_batches:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = TGN(machine, wikipedia, TGNConfig(batch_size=batch_size))
        profile, _ = profile_single_iteration(model, machine, label=f"tgn-b{batch_size}")
        result.add_row(
            panel="c", model="TGN", parameter="batch_size", value=batch_size,
            gpu_utilization=profile.gpu_utilization(),
            gpu_compute_efficiency=profile.gpu_compute_efficiency(),
            memory_mb=profile.peak_memory_mb("gpu"),
            iteration_ms=profile.elapsed_ms,
        )

    # (d) MolDGNN: sweep the batch size.
    for batch_size in moldgnn_batches:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = MolDGNN(machine, iso17, MolDGNNConfig(batch_size=batch_size))
        profile, _ = profile_single_iteration(model, machine, label=f"moldgnn-b{batch_size}")
        result.add_row(
            panel="d", model="MolDGNN", parameter="batch_size", value=batch_size,
            gpu_utilization=profile.gpu_utilization(),
            gpu_compute_efficiency=profile.gpu_compute_efficiency(),
            memory_mb=profile.peak_memory_mb("gpu"),
            iteration_ms=profile.elapsed_ms,
        )

    return result
