"""Table 1: summary of the profiled DGNNs.

The paper's Table 1 lists, for each of the eight models, its temporal
granularity (discrete vs continuous), which parts of the graph/model evolve
over time, its time-encoding mechanism and example tasks.  Here the table is
regenerated from each model implementation's :meth:`describe` card, so the
reported properties are guaranteed to match what the code actually does.
"""

from __future__ import annotations

from typing import Dict, List

from ..models.registry import MODEL_NAMES, build_on_fresh_machine
from .runner import ExperimentResult

#: The paper's Table 1, keyed by model name, for EXPERIMENTS.md comparison.
PAPER_TABLE1: Dict[str, Dict[str, object]] = {
    "JODIE": {"type": "continuous", "time_encoding": "RNN"},
    "TGN": {"type": "continuous", "time_encoding": "time embedding"},
    "EvolveGCN-O": {"type": "discrete", "time_encoding": "RNN"},
    "EvolveGCN-H": {"type": "discrete", "time_encoding": "RNN"},
    "TGAT": {"type": "continuous", "time_encoding": "time embedding"},
    "ASTGNN": {"type": "discrete", "time_encoding": "self-attention"},
    "DyRep": {"type": "continuous", "time_encoding": "RNN"},
    "LDG": {"type": "continuous", "time_encoding": "RNN + self-attention"},
    "MolDGNN": {"type": "discrete", "time_encoding": "RNN"},
}


def run(scale: str = "tiny") -> ExperimentResult:
    """Regenerate Table 1 from the model implementations."""
    result = ExperimentResult(
        experiment="table1",
        notes=(
            "Regenerated from each implementation's ModelCard; the paper lists "
            "EvolveGCN once, this table separates the -O and -H variants."
        ),
    )
    for name in MODEL_NAMES:
        _, model = build_on_fresh_machine(name, use_gpu=False, scale=scale)
        row = model.describe().as_row()
        row["parameters"] = model.param_count()
        result.add_row(**row)
    return result


def matches_paper(result: ExperimentResult) -> List[str]:
    """Check the regenerated table against the paper's Table 1.

    Returns a list of mismatch descriptions (empty when everything agrees).
    """
    mismatches: List[str] = []
    by_name = {row["model"]: row for row in result.rows}
    for model, expected in PAPER_TABLE1.items():
        row = by_name.get(model)
        if row is None:
            mismatches.append(f"{model}: missing from regenerated table")
            continue
        for key, value in expected.items():
            if row.get(key) != value:
                mismatches.append(f"{model}: {key} is {row.get(key)!r}, paper says {value!r}")
    return mismatches
