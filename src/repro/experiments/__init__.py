"""Experiment harnesses regenerating every table and figure in the paper's
evaluation, plus the ablations for the Sec. 5 optimization proposals."""

import inspect
from typing import Callable, Dict, List

from . import (
    ablations,
    adaptive_fidelity,
    autoscaling,
    cache_ablation,
    fig6,
    fig7,
    fig8,
    fig9,
    overlap_exec,
    scaling,
    serving,
    table1,
    table2,
    warmup_onetime,
)
from .runner import ExperimentResult

#: All experiments keyed by their id.  ``run(**kwargs)`` on each module
#: returns an :class:`ExperimentResult`.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "warmup_onetime": warmup_onetime.run,
    "ablations": ablations.run,
    "adaptive_fidelity": adaptive_fidelity.run,
    "autoscaling": autoscaling.run,
    "cache_ablation": cache_ablation.run,
    "overlap_exec": overlap_exec.run,
    "scaling": scaling.run,
    "serving": serving.run,
}


def available_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


#: Keyword arguments the CLI passes to every experiment uniformly; dropped
#: for experiments whose ``run`` does not declare them (all other unknown
#: kwargs still raise, so caller typos are not silently ignored).
SHARED_KWARGS = ("seed",)


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id.

    Shared CLI knobs (see :data:`SHARED_KWARGS`, e.g. ``--seed``) are dropped
    for experiments whose ``run`` does not declare them: seeded experiments
    thread the value through their configs and workload generators, the rest
    -- deterministic by construction -- simply ignore it.
    """
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(available_experiments())}"
        )
    runner = EXPERIMENTS[name]
    parameters = inspect.signature(runner).parameters
    accepts_any = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())
    if not accepts_any:
        kwargs = {k: v for k, v in kwargs.items() if k in parameters or k not in SHARED_KWARGS}
    return runner(**kwargs)


__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "adaptive_fidelity",
    "autoscaling",
    "available_experiments",
    "cache_ablation",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "overlap_exec",
    "run_experiment",
    "scaling",
    "serving",
    "table1",
    "table2",
    "warmup_onetime",
]
