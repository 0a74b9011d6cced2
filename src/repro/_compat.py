"""Small compatibility shims shared across the package.

The hot-path records (events, intervals, stream markers) want
``dataclass(slots=True)`` for cheap construction and a smaller memory
footprint, but ``slots=True`` only exists on Python >= 3.10 and the package
still supports 3.9.  ``DATACLASS_SLOTS`` expands to ``{"slots": True}`` where
available and to nothing otherwise, so call sites can write
``@dataclass(frozen=True, **DATACLASS_SLOTS)`` unconditionally.

Likewise, from Python 3.12 on the builtin ``sum`` rounds a float total
differently; :func:`ordered_sum` gives the same bits on every version.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add
from typing import Any, Dict, Iterable

DATACLASS_SLOTS: Dict[str, Any] = {"slots": True} if sys.version_info >= (3, 10) else {}


def ordered_sum(values: Iterable[Any]) -> Any:
    """``sum(values)``, adding strictly left to right on every Python version.

    Python 3.12's builtin ``sum`` compensates float rounding (Neumaier) where
    3.9-3.11 add in order, so the same floats total to different bits.  Every
    float total the package reports goes through here, so a report does not
    depend on the interpreter.  Like ``sum``, the empty total is ``0``.
    """
    return reduce(add, values, 0)
