"""Fig. 7: per-iteration inference breakdown of every profiled model.

The paper's Fig. 7 decomposes one inference iteration of each model into its
functional modules, swept over the model's most relevant parameter:

* (a) TGN over batch size -- message passing (neighbour gathering + the
  associated transfers) grows to dominate at large batches;
* (b) MolDGNN over batch size -- memory copy dominates (~80-90%) everywhere;
* (c) ASTGNN over batch size -- temporal attention exceeds the spatial GCN by
  more than 3x, CUDA synchronisation grows with the batch;
* (d) JODIE on reddit/wikipedia/lastfm, CPU and GPU -- embedding load/update
  dominate;
* (e)-(h) TGAT over the sampled-neighbourhood size, on Wikipedia and Reddit,
  on GPU and CPU -- sampling on the CPU dominates everywhere and its share
  grows with the neighbourhood;
* (i)/(j) EvolveGCN-O/-H on the Reddit-hyperlink and Bitcoin-Alpha snapshot
  datasets, CPU and GPU -- GNN dominates, memory copy is much larger on the
  bigger Reddit snapshots, and -H pays an extra top-k cost.

Every row this experiment emits is one bar of one panel: the configuration
plus the per-module times and shares from :func:`repro.core.compute_breakdown`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..core import compute_breakdown
from ..datasets import load as load_dataset
from ..models import (
    ASTGNNConfig,
    EvolveGCNConfig,
    JODIEConfig,
    MolDGNNConfig,
    TGATConfig,
    TGNConfig,
)
from ..models.astgnn import ASTGNN
from ..models.evolvegcn import EvolveGCN
from ..models.jodie import JODIE
from ..models.moldgnn import MolDGNN
from ..models.tgat import TGAT
from ..models.tgn import TGN
from .runner import ExperimentResult, new_machine, profile_single_iteration

#: Qualitative expectations from the paper, used by EXPERIMENTS.md and tests.
PAPER_TRENDS: Dict[str, str] = {
    "tgn": "message passing share grows with batch size and dominates at the largest batches",
    "moldgnn": "memory copy dominates (~80-90%) at every batch size",
    "astgnn": "temporal attention time is more than 3x the spatial GCN time",
    "jodie": "embedding load/update dominate; GPU adds memory-copy overhead",
    "tgat": "CPU-side sampling dominates and its absolute time grows with the neighbourhood size",
    "evolvegcn": (
        "GNN dominates; memory-copy share is larger on reddit-hyperlinks "
        "than on bitcoin-alpha"
    ),
}

DEFAULT_TGN_BATCHES = (4, 16, 128, 1024, 8192)
DEFAULT_MOLDGNN_BATCHES = (16, 64, 256, 1024, 4096)
DEFAULT_ASTGNN_BATCHES = (4, 8, 16, 32, 64)
DEFAULT_TGAT_NEIGHBORS = (10, 30, 50, 100, 200, 300)
DEFAULT_JODIE_DATASETS = ("reddit", "wikipedia", "lastfm")
DEFAULT_EVOLVEGCN_DATASETS = ("reddit-hyperlinks", "bitcoin-alpha")

PAPER_TGN_BATCHES = (4, 16, 128, 1024, 8192, 65536)
PAPER_MOLDGNN_BATCHES = (16, 64, 256, 1024, 4096, 16384)
PAPER_ASTGNN_BATCHES = (4, 8, 16, 32, 64, 128)


def _record_breakdown(
    result: ExperimentResult,
    panel: str,
    model_name: str,
    profile,
    fold_transfers: bool = False,
    **context: Any,
) -> None:
    breakdown = compute_breakdown(profile, fold_transfers=fold_transfers)
    for entry in breakdown.entries:
        result.add_row(
            panel=panel,
            model=model_name,
            module=entry.label,
            time_ms=round(entry.time_ms, 4),
            share=round(entry.fraction, 4),
            total_ms=round(breakdown.total_ms, 4),
            **context,
        )


def run_tgn(result: ExperimentResult, scale: str, batches: Sequence[int]) -> None:
    dataset = load_dataset("wikipedia", scale=scale)
    for batch_size in batches:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = TGN(machine, dataset, TGNConfig(batch_size=batch_size))
        profile, _ = profile_single_iteration(model, machine, label=f"tgn-b{batch_size}")
        _record_breakdown(
            result, "a", "TGN", profile, fold_transfers=True,
            device="gpu", parameter="batch_size", value=batch_size,
        )


def run_moldgnn(result: ExperimentResult, scale: str, batches: Sequence[int]) -> None:
    dataset = load_dataset("iso17", scale=scale)
    for batch_size in batches:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = MolDGNN(machine, dataset, MolDGNNConfig(batch_size=batch_size))
        profile, _ = profile_single_iteration(model, machine, label=f"moldgnn-b{batch_size}")
        _record_breakdown(
            result, "b", "MolDGNN", profile,
            device="gpu", parameter="batch_size", value=batch_size,
        )


def run_astgnn(result: ExperimentResult, scale: str, batches: Sequence[int]) -> None:
    dataset = load_dataset("pems", scale=scale)
    for batch_size in batches:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = ASTGNN(machine, dataset, ASTGNNConfig(batch_size=batch_size))
        profile, _ = profile_single_iteration(model, machine, label=f"astgnn-b{batch_size}")
        _record_breakdown(
            result, "c", "ASTGNN", profile,
            device="gpu", parameter="batch_size", value=batch_size,
        )


def run_jodie(result: ExperimentResult, scale: str, datasets: Sequence[str]) -> None:
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale)
        for use_gpu in (False, True):
            machine = new_machine(use_gpu=use_gpu)
            with machine.activate():
                model = JODIE(machine, dataset, JODIEConfig())
            profile, _ = profile_single_iteration(
                model, machine, label=f"jodie-{dataset_name}-{'gpu' if use_gpu else 'cpu'}"
            )
            _record_breakdown(
                result, "d", "JODIE", profile, fold_transfers=True,
                device="gpu" if use_gpu else "cpu",
                parameter="dataset", value=dataset_name,
            )


def run_tgat(
    result: ExperimentResult,
    scale: str,
    neighborhoods: Sequence[int],
    datasets: Sequence[str] = ("wikipedia", "reddit"),
    batch_size: int = 8,
) -> None:
    panels = {("wikipedia", "gpu"): "e", ("wikipedia", "cpu"): "f",
              ("reddit", "gpu"): "g", ("reddit", "cpu"): "h"}
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale)
        for use_gpu in (True, False):
            for neighbors in neighborhoods:
                machine = new_machine(use_gpu=use_gpu)
                with machine.activate():
                    model = TGAT(
                        machine, dataset,
                        TGATConfig(num_neighbors=neighbors, batch_size=batch_size),
                    )
                profile, _ = profile_single_iteration(
                    model, machine,
                    label=f"tgat-{dataset_name}-k{neighbors}-{'gpu' if use_gpu else 'cpu'}",
                )
                _record_breakdown(
                    result, panels[(dataset_name, "gpu" if use_gpu else "cpu")],
                    "TGAT", profile,
                    device="gpu" if use_gpu else "cpu",
                    parameter="neighborhood", value=neighbors, dataset=dataset_name,
                )


def run_evolvegcn(result: ExperimentResult, scale: str, datasets: Sequence[str]) -> None:
    panels = {"reddit-hyperlinks": "i", "bitcoin-alpha": "j"}
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale)
        for variant in ("H", "O"):
            for use_gpu in (True, False):
                machine = new_machine(use_gpu=use_gpu)
                with machine.activate():
                    model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant=variant))
                profile, _ = profile_single_iteration(
                    model, machine,
                    label=f"evolvegcn{variant}-{dataset_name}-{'gpu' if use_gpu else 'cpu'}",
                )
                _record_breakdown(
                    result, panels[dataset_name], f"EvolveGCN-{variant}", profile,
                    device="gpu" if use_gpu else "cpu",
                    parameter="dataset", value=dataset_name, variant=variant,
                )


def run(
    scale: str = "small",
    paper_scale: bool = False,
    panels: Optional[Sequence[str]] = None,
    tgn_batches: Optional[Sequence[int]] = None,
    moldgnn_batches: Optional[Sequence[int]] = None,
    astgnn_batches: Optional[Sequence[int]] = None,
    tgat_neighborhoods: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Regenerate the Fig. 7 breakdowns.

    Args:
        scale: Dataset scale.
        paper_scale: Use the paper's sweep values (larger and slower).
        panels: Restrict to a subset of panel ids (``"a"`` .. ``"j"``).
        *_batches / tgat_neighborhoods: Override individual sweeps.
    """
    result = ExperimentResult(
        experiment="fig7",
        notes=(
            "Each row is one module of one configuration's per-iteration breakdown. "
            "Module labels follow the paper's Fig. 7 legends; transfers appear as "
            "'Memory Copy' and trailing device syncs as 'Cuda Synchronization'."
        ),
    )
    wanted = set(panels) if panels is not None else set("abcdefghij")
    if "a" in wanted:
        run_tgn(
            result,
            scale,
            tuple(tgn_batches or (PAPER_TGN_BATCHES if paper_scale else DEFAULT_TGN_BATCHES)),
        )
    if "b" in wanted:
        run_moldgnn(
            result,
            scale,
            tuple(
                moldgnn_batches
                or (PAPER_MOLDGNN_BATCHES if paper_scale else DEFAULT_MOLDGNN_BATCHES)
            ),
        )
    if "c" in wanted:
        run_astgnn(
            result,
            scale,
            tuple(
                astgnn_batches
                or (PAPER_ASTGNN_BATCHES if paper_scale else DEFAULT_ASTGNN_BATCHES)
            ),
        )
    if "d" in wanted:
        run_jodie(result, scale, DEFAULT_JODIE_DATASETS)
    if wanted & {"e", "f", "g", "h"}:
        run_tgat(result, scale, tuple(tgat_neighborhoods or DEFAULT_TGAT_NEIGHBORS))
    if wanted & {"i", "j"}:
        run_evolvegcn(result, scale, DEFAULT_EVOLVEGCN_DATASETS)
    return result
