"""The fuzz campaign driver: draw, run, check, shrink, report.

``fuzz(seed, budget)`` runs ``budget`` independent cases.  Case ``i`` is
seeded by the stable string ``"{seed}:{i}"``, so any single case replays
without running its predecessors.  The first invariant violation stops the
campaign: the case is greedily shrunk (see :mod:`repro.fuzz.shrink`) and
returned as a self-contained JSON reproducer.  Harness bugs (an op raising
an unexpected exception) are reported the same way, tagged pseudo-invariant
``"crash"`` -- a fuzzer that silently skips crashing inputs finds nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..domain import POSITIVE_INT, PROBABILITY
from .config import FuzzConfig, draw_config
from .invariants import check_case, resolve_checks
from .program import Op, draw_program
from .shrink import as_violation, reproducer_dict, shrink


@dataclass
class FuzzFailure:
    """One minimized failing case."""

    case: int
    invariant: str
    error: str
    reproducer: Dict[str, Any]


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    seed: int
    budget: int
    cases_run: int = 0
    ops_executed: int = 0
    checks: List[str] = field(default_factory=list)
    configs_seen: Dict[str, int] = field(default_factory=dict)
    failure: Optional[FuzzFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases_run}/{self.budget} cases, "
            f"{self.ops_executed} ops, seed {self.seed}",
            f"  checks: {', '.join(self.checks)}",
        ]
        for key in sorted(self.configs_seen):
            lines.append(f"  {key}: {self.configs_seen[key]}")
        if self.failure is None:
            lines.append("  all invariants held")
        else:
            lines.append(
                f"  FAILED case {self.failure.case} "
                f"[{self.failure.invariant}]: {self.failure.error}"
            )
            lines.append(
                f"  shrunk to {len(self.failure.reproducer['ops'])} ops under "
                f"config {self.failure.reproducer['config']}"
            )
        return "\n".join(lines)


def case_rng(seed: int, case: int) -> random.Random:
    """The per-case RNG: stable, order-independent between cases."""
    return random.Random(f"{seed}:{case}")


def draw_case(seed: int, case: int, num_ops: int = 40, fault_rate: float = 0.0):
    """Draw case ``case`` of campaign ``seed`` (config + program)."""
    rng = case_rng(seed, case)
    config = draw_config(rng)
    ops = draw_program(rng, config, num_ops=num_ops, fault_rate=fault_rate)
    return config, ops


def fuzz(
    seed: int = 0,
    budget: int = 100,
    checks: Optional[Iterable[str]] = None,
    num_ops: int = 40,
    fault_rate: float = 0.0,
    on_case=None,
) -> FuzzReport:
    """Run one fuzz campaign; stops (and shrinks) at the first violation.

    Args:
        seed: Campaign seed.
        budget: Number of independent cases to run.
        checks: Invariant names (``None``/``"all"`` = every invariant).
        num_ops: Ops per program (the serving episode rides on top).
        fault_rate: Probability of planting a ``rewind`` fault per op slot
            (harness self-tests only; keep 0.0 for real campaigns).
        on_case: Optional ``f(case_index, config)`` progress callback.
    """
    POSITIVE_INT.check("budget", budget)
    POSITIVE_INT.check("num_ops", num_ops)
    PROBABILITY.check("fault_rate", fault_rate)
    selected = sorted(resolve_checks(checks))
    report = FuzzReport(seed=seed, budget=budget, checks=selected)
    for case in range(budget):
        config, ops = draw_case(seed, case, num_ops=num_ops, fault_rate=fault_rate)
        if on_case is not None:
            on_case(case, config)
        _tally(report, config)
        report.cases_run = case + 1
        report.ops_executed += len(ops)
        try:
            check_case(config, ops, selected)
        except Exception as error:  # noqa: BLE001 - crashes are findings too
            shrunk_config, shrunk_ops, final = shrink(
                config, ops, as_violation(error), selected
            )
            report.failure = FuzzFailure(
                case=case,
                invariant=final.invariant,
                error=final.message,
                reproducer=reproducer_dict(
                    shrunk_config, shrunk_ops, final, seed=f"{seed}:{case}"
                ),
            )
            return report
    return report


def _tally(report: FuzzReport, config: FuzzConfig) -> None:
    report.configs_seen[f"backend:{config.backend}"] = (
        report.configs_seen.get(f"backend:{config.backend}", 0) + 1
    )
    if config.cluster:
        report.configs_seen["clustered"] = report.configs_seen.get("clustered", 0) + 1
    if config.cache:
        report.configs_seen["cached"] = report.configs_seen.get("cached", 0) + 1
    if config.serving:
        report.configs_seen["serving"] = report.configs_seen.get("serving", 0) + 1


# -- reproducer replay ------------------------------------------------------


def replay(reproducer: Dict[str, Any], checks: Optional[Iterable[str]] = None) -> None:
    """Re-execute a reproducer document; raises if its invariant still fails.

    ``checks`` defaults to the reproducer's own invariant (plus the online
    invariants that execution always exercises when selected), which is what
    the regression corpus wants: after the fix, replay must pass.
    """
    config = FuzzConfig.from_dict(reproducer["config"])
    ops: List[Op] = reproducer["ops"]
    if checks is None:
        invariant = reproducer.get("invariant")
        checks = None if invariant in (None, "crash") else [invariant]
    check_case(config, ops, checks)
