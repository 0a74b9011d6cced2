"""Greedy minimization of failing fuzz cases.

Given a (config, ops) pair that trips an invariant, the shrinker removes as
much as it can while the *same* invariant keeps tripping (for a harness
crash, pseudo-invariant ``"crash"``: the same exception type):

1. op-list passes with exponentially shrinking chunk sizes (classic ddmin
   schedule: drop halves, then quarters, ... then single ops);
2. config simplification (drop the cluster, drop the cache, drop the
   serving episode, fall back to the numeric backend and the smallest
   topology) -- each candidate kept only if the failure survives;
3. one final single-op sweep, since a simpler config often unlocks further
   op removals.

Every candidate is judged by re-running the full check (base execution +
differentials + finals), so a shrunken case is a true reproducer, not a
syntactic fragment.  The result is emitted as a plain-JSON dict --
``{"invariant", "error", "config", "ops", "seed"}`` -- that
:func:`repro.fuzz.runner.replay` can execute verbatim.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .config import FuzzConfig
from .invariants import check_case
from .program import InvariantViolation, Op, op_spec

REPRODUCER_VERSION = 1


def as_violation(error: Exception) -> InvariantViolation:
    """Any failure of a case as a violation; crashes are findings too."""
    if isinstance(error, InvariantViolation):
        return error
    return InvariantViolation("crash", f"{type(error).__name__}: {error}")


def _failure(violation: InvariantViolation) -> Tuple[str, str]:
    """What must recur for a candidate to count as the same failure."""
    crashed = violation.invariant == "crash"
    return violation.invariant, (violation.message.split(":", 1)[0] if crashed else "")


Fails = Callable[[FuzzConfig, List[Op]], Optional[InvariantViolation]]


def _shrink_ops(config: FuzzConfig, ops: List[Op], fails: Fails) -> List[Op]:
    chunk = max(len(ops) // 2, 1)
    while chunk >= 1:
        index = 0
        while index < len(ops):
            candidate = ops[:index] + ops[index + chunk:]
            if candidate and fails(config, candidate):
                ops = candidate
            else:
                index += chunk
        if chunk == 1:
            break
        chunk = max(chunk // 2, 1)
    return ops


def _shrink_config(config: FuzzConfig, ops: List[Op], fails: Fails) -> FuzzConfig:
    for overrides in (
        {"serving": None},
        {"cluster": None},
        {"cache": None},
        {"backend": "numeric"},
        {"topology": "1xA6000"},
    ):
        candidate = FuzzConfig.from_dict({**config.as_dict(), **overrides})
        if fails(candidate, ops):
            config = candidate
    return config


def shrink(
    config: FuzzConfig,
    ops: List[Op],
    violation: InvariantViolation,
    checks: Optional[Iterable[str]] = None,
) -> Tuple[FuzzConfig, List[Op], InvariantViolation]:
    """Minimize a failing case; returns (config, ops, final violation)."""
    wanted = _failure(violation)

    def fails(config: FuzzConfig, ops: List[Op]) -> Optional[InvariantViolation]:
        """The violation if this candidate still fails the same way."""
        try:
            check_case(config, ops, checks)
        except Exception as error:  # noqa: BLE001
            found = as_violation(error)
            # A different blow-up is a different bug; keep the case we have.
            return found if _failure(found) == wanted else None
        return None

    ops = _shrink_ops(config, list(ops), fails)
    config = _shrink_config(config, ops, fails)
    ops = _shrink_ops(config, ops, fails)
    final = fails(config, ops)
    return config, ops, final if final is not None else violation


# -- reproducer files -------------------------------------------------------


def reproducer_dict(
    config: FuzzConfig,
    ops: List[Op],
    violation: InvariantViolation,
    seed: Any = None,
) -> Dict[str, Any]:
    """The JSON document a shrunken failure is checked in as."""
    return {
        "version": REPRODUCER_VERSION,
        "seed": seed,
        "invariant": violation.invariant,
        "error": violation.message,
        "config": config.as_dict(),
        "ops": ops,
    }


def save_reproducer(path: str, reproducer: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reproducer, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_reproducer(path: str) -> Dict[str, Any]:
    """Read a reproducer file; ``ValueError`` if it cannot be replayed."""
    with open(path, "r", encoding="utf-8") as handle:
        reproducer = json.load(handle)
    if not isinstance(reproducer, dict) or not isinstance(reproducer.get("config"), dict):
        raise ValueError("a reproducer is an object with a 'config' object")
    FuzzConfig.from_dict(reproducer["config"])
    ops = reproducer.get("ops")
    if not isinstance(ops, list) or not all(isinstance(op, dict) for op in ops):
        raise ValueError("'ops' must be a list of op objects")
    for op in ops:
        op_spec(op)
    return reproducer
