"""The domain of a public number: checked NaN-safely at its owner's entry
(:meth:`Domain.check`) and by the CLI flag that feeds it (:meth:`Domain.arg`)."""

from __future__ import annotations

import argparse
import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Domain:
    """Bounds, whether each end is open, integers only, ``±inf`` allowed."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    integer: bool = False
    infinite: bool = False

    def __contains__(self, value) -> bool:
        if self.integer and not isinstance(value, numbers.Integral):
            return False
        if not self.integer and math.isinf(value) and not self.infinite:
            return False
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        kind = "an integer" if self.integer else "a number" if self.infinite else "a finite number"
        ends = ((">" if self.lo_open else ">=", self.lo), ("<" if self.hi_open else "<=", self.hi))
        bounds = [
            f"{op} {end if isinstance(end, numbers.Integral) else format(end, 'g')}"
            for op, end in ends
            if -math.inf < end < math.inf
        ]
        return " ".join([kind, " and ".join(bounds)]).rstrip()

    def check(self, name: str, value):
        """``value``, or a :class:`ValueError` naming ``name`` and the domain."""
        if value not in self:
            raise ValueError(f"{name} must be {self}, got {value!r}")
        return value

    def arg(self, text: str):
        """argparse ``type``: argparse reports a refusal against the flag."""
        try:
            return self.check("value", int(text) if self.integer else float(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {self}, got {text!r}") from None


INTEGER, FINITE = Domain(integer=True), Domain()
POSITIVE, NON_NEGATIVE, PROBABILITY = Domain(0, lo_open=True), Domain(0), Domain(0, 1)
POSITIVE_INT, NON_NEGATIVE_INT = Domain(1, integer=True), Domain(0, integer=True)
