"""Shared experiment plumbing.

Every experiment in this package follows the same recipe the paper's artifact
uses: build a fresh simulated machine for the configuration, construct the
model, perform GPU warm-up outside the measured window, profile one (or a few)
inference iterations, and extract the quantity the figure/table reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..core import Profile, Profiler
from ..datasets import load as load_dataset
from ..hw.machine import Machine
from ..models import build_model
from ..models.base import DGNNModel
from ..models.tgat import TGAT, TGATConfig
from ..serve import build_server, make_requests


@dataclass
class ExperimentResult:
    """The output of one experiment: named rows plus free-form notes.

    Attributes:
        experiment: Experiment identifier (``"fig6"``, ``"table2"``, ...).
        rows: One dict per reported row/series point.
        notes: Human-readable commentary (assumptions, scaling caveats).
    """

    experiment: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        self.rows.append(dict(values))

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows matching all given column values."""
        selected = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                selected.append(row)
        return selected

    def format_table(self, max_rows: Optional[int] = None) -> str:
        """Render the rows as a plain-text table."""
        if not self.rows:
            return f"{self.experiment}: (no rows)"
        columns = list(self.rows[0].keys())
        for row in self.rows[1:]:
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows)) for c in columns}
        lines = [self.experiment]
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        lines.append("  ".join("-" * widths[c] for c in columns))
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        for row in rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
        if self.notes:
            lines.append("")
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def new_machine(use_gpu: bool = True, **kwargs) -> Machine:
    """A fresh machine for one experiment configuration."""
    return Machine.cpu_gpu(**kwargs) if use_gpu else Machine.cpu_only(**kwargs)


def profile_single_iteration(
    model: DGNNModel,
    machine: Machine,
    label: str = "",
    batch: Optional[Any] = None,
    warm_up: bool = True,
    batch_kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[Profile, Any]:
    """Warm the model up and profile exactly one inference iteration.

    Returns the captured profile and the batch that was processed.
    """
    if batch is None:
        batch = next(iter(model.iteration_batches(**(batch_kwargs or {}))))
    with machine.activate():
        if warm_up:
            model.warm_up(batch)
        profiler = Profiler(machine)
        with profiler.capture(label or model.name):
            model.inference_iteration(batch)
    return (profiler.last_profile, batch)


def profile_iterations(
    model: DGNNModel,
    machine: Machine,
    num_iterations: int,
    label: str = "",
    warm_up: bool = True,
    batch_kwargs: Optional[Dict[str, Any]] = None,
) -> List[Profile]:
    """Profile several consecutive iterations (one capture per iteration)."""
    profiles: List[Profile] = []
    with machine.activate():
        batches = model.iteration_batches(**(batch_kwargs or {}))
        profiler = Profiler(machine)
        for index, batch in enumerate(batches):
            if index >= num_iterations:
                break
            if warm_up and index == 0:
                model.warm_up(batch)
            with profiler.capture(f"{label or model.name}-iter{index}"):
                model.inference_iteration(batch)
            profiles.append(profiler.last_profile)
    return profiles


def measure_iteration_latency(
    model_name: str,
    use_gpu: bool,
    dataset: Any = None,
    dataset_name: Optional[str] = None,
    scale: str = "small",
    batch_kwargs: Optional[Dict[str, Any]] = None,
    **config_overrides: Any,
) -> float:
    """End-to-end latency (ms) of one inference iteration on CPU or CPU+GPU.

    Builds a fresh machine and model so runs are independent, performs warm-up
    outside the measurement (as the paper does), and returns the host-observed
    elapsed time of one iteration.
    """
    machine = new_machine(use_gpu=use_gpu)
    with machine.activate():
        model = build_model(
            model_name, machine, dataset=dataset, dataset_name=dataset_name,
            scale=scale, **config_overrides,
        )
    profile, _ = profile_single_iteration(
        model, machine, label=f"{model_name}-{'gpu' if use_gpu else 'cpu'}",
        batch_kwargs=batch_kwargs,
    )
    return profile.elapsed_ms


class ServingSweep:
    """What the serving sweeps share: dataset, model factory, capacity, knobs.

    Loads wikipedia at ``scale``, fixes the TGAT configuration every cell
    serves, and measures the blocking cost of one request on a throwaway
    ``calibration_topology`` machine: two full batches through
    ``inference_iteration`` (the second excludes first-iteration effects),
    divided by the batch size.  Arrival rates are fractions of the implied
    ``capacity_rps``, which keeps queueing behaviour stable across dataset
    scales.  ``requests`` and ``server`` are :func:`~repro.serve.make_requests`
    and :func:`~repro.serve.build_server` with the knobs a sweep holds
    constant filled in; every cell builds a fresh server on a fresh machine
    (runs must not share timelines).
    """

    def __init__(
        self,
        calibration_topology: str,
        *,
        scale: str,
        seed: int,
        max_batch_size: int,
        batch_timeout_ms: float,
        slo_ms: float,
        events_per_request: int,
        num_neighbors: int,
        backend: str,
    ) -> None:
        self.dataset = dataset = load_dataset("wikipedia", scale=scale)
        events = max_batch_size * events_per_request
        config = TGATConfig(num_neighbors=num_neighbors, batch_size=events, seed=seed)

        def factory(machine: Machine) -> TGAT:
            return TGAT(machine, dataset, config)

        self.requests = partial(
            make_requests,
            dataset.stream,
            seed=seed,
            events_per_request=events_per_request,
            slo_ms=slo_ms,
        )
        self.server = partial(
            build_server,
            model_factory=factory,
            backend=backend,
            max_batch_size=max_batch_size,
            batch_timeout_ms=batch_timeout_ms,
            slo_ms=slo_ms,
        )
        machine = Machine.from_spec(calibration_topology, backend=backend)
        batches = [dataset.stream.slice_indices(i * events, (i + 1) * events) for i in range(2)]
        with machine.activate():
            model = factory(machine)
            model.warm_up(batches[0])
            model.inference_iteration(batches[0])
            start = machine.host_time_ms
            model.inference_iteration(batches[1])
            self.per_request_ms = (machine.host_time_ms - start) / max_batch_size
        self.capacity_rps = 1000.0 / self.per_request_ms if self.per_request_ms > 0 else 1000.0
