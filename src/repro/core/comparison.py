"""Cross-configuration comparison (the paper's Fig. 8 speedup analysis).

Given latencies of the same model/workload measured on the CPU-only machine
and the CPU+GPU machine, compute the GPU speedup, identify sub-1x cases
(DyRep/LDG in the paper) and produce the per-dataset speedup tables of
Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class LatencyMeasurement:
    """One measured configuration: a model, a workload and a latency."""

    model: str
    dataset: str
    device: str
    parameter: str
    value: float
    latency_ms: float

    def key(self) -> Tuple[str, str, str, float]:
        return (self.model, self.dataset, self.parameter, self.value)


@dataclass(frozen=True)
class SpeedupRow:
    """CPU vs GPU latency for one configuration."""

    model: str
    dataset: str
    parameter: str
    value: float
    cpu_ms: float
    gpu_ms: float

    @property
    def speedup(self) -> float:
        """GPU speedup over CPU (>1 means the GPU wins)."""
        if self.gpu_ms <= 0:
            return float("inf")
        return self.cpu_ms / self.gpu_ms

    def as_row(self) -> dict:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "parameter": self.parameter,
            "value": self.value,
            "cpu_ms": round(self.cpu_ms, 3),
            "gpu_ms": round(self.gpu_ms, 3),
            "speedup": round(self.speedup, 3),
        }


class SpeedupTable:
    """Collects latency measurements and pairs CPU/GPU runs into speedups."""

    def __init__(self) -> None:
        self._measurements: List[LatencyMeasurement] = []

    def add(
        self,
        model: str,
        dataset: str,
        device: str,
        latency_ms: float,
        parameter: str = "",
        value: float = 0.0,
    ) -> None:
        if device not in ("cpu", "gpu"):
            raise ValueError("device must be 'cpu' or 'gpu'")
        if latency_ms < 0:
            raise ValueError("latency must be non-negative")
        self._measurements.append(
            LatencyMeasurement(model, dataset, device, parameter, value, latency_ms)
        )

    def rows(self) -> List[SpeedupRow]:
        """Pair up CPU and GPU measurements of the same configuration."""
        cpu: Dict[Tuple, float] = {}
        gpu: Dict[Tuple, float] = {}
        order: List[Tuple] = []
        for measurement in self._measurements:
            key = measurement.key()
            target = cpu if measurement.device == "cpu" else gpu
            target[key] = measurement.latency_ms
            if key not in order:
                order.append(key)
        rows = []
        for key in order:
            if key in cpu and key in gpu:
                model, dataset, parameter, value = key
                rows.append(
                    SpeedupRow(
                        model=model, dataset=dataset, parameter=parameter, value=value,
                        cpu_ms=cpu[key], gpu_ms=gpu[key],
                    )
                )
        return rows

    def speedup(
        self, model: str, dataset: str, parameter: str = "", value: float = 0.0
    ) -> Optional[float]:
        for row in self.rows():
            if (row.model, row.dataset, row.parameter, row.value) == (
                model, dataset, parameter, value,
            ):
                return row.speedup
        return None

    def as_rows(self) -> List[dict]:
        return [row.as_row() for row in self.rows()]

    def format_table(self, title: str = "GPU speedup over CPU") -> str:
        lines = [title, "-" * max(40, len(title))]
        for row in self.rows():
            lines.append(
                f"{row.model:<14} {row.dataset:<18} {row.parameter}={row.value:<8g} "
                f"cpu={row.cpu_ms:9.2f} ms  gpu={row.gpu_ms:9.2f} ms  "
                f"speedup={row.speedup:5.2f}x"
            )
        return "\n".join(lines)
