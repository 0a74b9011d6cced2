"""Cross-tier simulator fuzzing & invariant harness.

Industrializes the PR 3 property tests into a subsystem that exercises the
*whole* configuration cross-product -- machine topologies x cluster NIC
presets x cache policy/capacity/staleness x serving placement/router/policy
x numeric-vs-shape backend -- with seeded random operator programs, checks
the simulator's global contracts after every run, and greedily shrinks any
failure to a seed + JSON reproducer (see ``tests/fuzz_corpus/``).

Entry points: the ``repro-dgnn fuzz`` CLI subcommand and the bounded pytest
suite in ``tests/test_fuzz.py``.
"""

from .config import FuzzConfig, draw_config
from .invariants import INVARIANTS, check_case, resolve_checks
from .program import Execution, InvariantViolation, draw_program, signature
from .runner import draw_case, fuzz, replay
from .shrink import load_reproducer, reproducer_dict, save_reproducer, shrink

__all__ = [
    "INVARIANTS",
    "Execution",
    "FuzzConfig",
    "InvariantViolation",
    "check_case",
    "draw_case",
    "draw_config",
    "draw_program",
    "fuzz",
    "load_reproducer",
    "replay",
    "reproducer_dict",
    "resolve_checks",
    "save_reproducer",
    "shrink",
    "signature",
]
