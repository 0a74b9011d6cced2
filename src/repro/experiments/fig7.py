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

from ..core import compute_breakdown
from .runner import ExperimentResult, Panel, profile_panels

_TGN_BATCHES = (4, 16, 128, 1024, 8192)
_MOLDGNN_BATCHES = (16, 64, 256, 1024, 4096)
_ASTGNN_BATCHES = (4, 8, 16, 32, 64)
_TGAT = dict(field="num_neighbors", values=(10, 30, 50, 100, 200, 300),
             fixed={"batch_size": 8}, parameter="neighborhood")

PANELS = (
    Panel("a", "tgn", "wikipedia", field="batch_size", values=_TGN_BATCHES,
          paper_values=_TGN_BATCHES + (65536,)),
    Panel("b", "moldgnn", "iso17", field="batch_size", values=_MOLDGNN_BATCHES,
          paper_values=_MOLDGNN_BATCHES + (16384,)),
    Panel("c", "astgnn", "pems", field="batch_size", values=_ASTGNN_BATCHES,
          paper_values=_ASTGNN_BATCHES + (128,)),
    Panel("d", "jodie", "reddit", ("cpu", "gpu")),
    Panel("d", "jodie", "wikipedia", ("cpu", "gpu")),
    Panel("d", "jodie", "lastfm", ("cpu", "gpu")),
    Panel("e", "tgat", "wikipedia", ("gpu",), labels={"dataset": "wikipedia"}, **_TGAT),
    Panel("f", "tgat", "wikipedia", ("cpu",), labels={"dataset": "wikipedia"}, **_TGAT),
    Panel("g", "tgat", "reddit", ("gpu",), labels={"dataset": "reddit"}, **_TGAT),
    Panel("h", "tgat", "reddit", ("cpu",), labels={"dataset": "reddit"}, **_TGAT),
    Panel("i", "evolvegcn-h", "reddit-hyperlinks", ("gpu", "cpu"), labels={"variant": "H"}),
    Panel("i", "evolvegcn-o", "reddit-hyperlinks", ("gpu", "cpu"), labels={"variant": "O"}),
    Panel("j", "evolvegcn-h", "bitcoin-alpha", ("gpu", "cpu"), labels={"variant": "H"}),
    Panel("j", "evolvegcn-o", "bitcoin-alpha", ("gpu", "cpu"), labels={"variant": "O"}),
)

#: Panels whose legend folds the transfers into the module that issues them.
FOLD_TRANSFERS = frozenset("ad")


def run(scale: str = "small", paper_scale: bool = False) -> ExperimentResult:
    """Regenerate the Fig. 7 breakdowns."""
    result = ExperimentResult(
        experiment="fig7",
        notes=(
            "Each row is one module of one configuration's per-iteration breakdown. "
            "Module labels follow the paper's Fig. 7 legends; transfers appear as "
            "'Memory Copy' and trailing device syncs as 'Cuda Synchronization'."
        ),
    )
    for point, model, (profile,) in profile_panels(PANELS, scale, paper_scale):
        panel, model_name = point.panel, model.describe().name
        breakdown = compute_breakdown(profile, fold_transfers=panel.panel in FOLD_TRANSFERS)
        for entry in breakdown.entries:
            result.add_row(
                panel=panel.panel,
                model=model_name,
                module=entry.label,
                time_ms=round(entry.time_ms, 4),
                share=round(entry.fraction, 4),
                total_ms=round(breakdown.total_ms, 4),
                device=point.device, parameter=point.parameter, value=point.value,
                **panel.labels,
            )
    return result
