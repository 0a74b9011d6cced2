"""Shared experiment plumbing.

Every offline experiment follows the recipe the paper's artifact uses: build a
fresh simulated machine for the configuration, construct the model, perform
GPU warm-up outside the measured window, profile one (or a few) inference
iterations, and extract the quantity the figure/table reports.  The recipe is
written once, as :func:`profile_cell`; a figure is a table of :class:`Panel`
rows walked by :func:`profile_panels` plus its own row formatter.  The serving
sweeps share :class:`ServingSweep`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core import Profile, Profiler, compute_breakdown
from ..datasets import load as load_dataset
from ..hw.machine import Machine
from ..models.base import DGNNModel
from ..models.registry import build_on_fresh_machine
from ..models.tgat import TGAT, TGATConfig
from ..optim import PipelinedEvolveGCN, PipelineEstimate, estimate_pipeline_speedup
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


def profile_iterations(
    model: DGNNModel, machine: Machine, num_iterations: int, label: str = ""
) -> List[Profile]:
    """Warm up outside the window, then profile consecutive iterations
    (one capture per iteration)."""
    profiles: List[Profile] = []
    with machine.activate():
        profiler = Profiler(machine)
        for index, batch in enumerate(islice(model.iteration_batches(), num_iterations)):
            if index == 0:
                model.warm_up(batch)
            with profiler.capture(f"{label or model.name}-iter{index}"):
                model.inference_iteration(batch)
            profiles.append(profiler.last_profile)
    return profiles


def profile_cell(
    model_name: str, dataset: Any, *, use_gpu: bool, iterations: int = 1, **config: Any
) -> Tuple[DGNNModel, List[Profile]]:
    """The paper's recipe for one configuration: fresh machine, build the
    model, warm up outside the window, profile ``iterations`` iterations.

    ``config`` goes to :func:`~repro.models.build_model`: config overrides, and
    ``scale`` / ``dataset_name`` when ``dataset`` is ``None``.
    """
    machine, model = build_on_fresh_machine(model_name, dataset, use_gpu=use_gpu, **config)
    return (model, profile_iterations(model, machine, iterations))


@contextmanager
def warm_window(
    model_name: str, dataset: Any, num_batches: int, **config: Any
) -> Iterator[Tuple[DGNNModel, List[Any], Profiler]]:
    """What a multi-batch measurement starts from: a fresh GPU machine
    (active inside the block), the model, its first ``num_batches`` batches,
    warm-up done on the first, and a profiler to capture with."""
    machine, model = build_on_fresh_machine(model_name, dataset, use_gpu=True, **config)
    with machine.activate():
        batches = list(islice(model.iteration_batches(), num_batches))
        model.warm_up(batches[0])
        yield (model, batches, Profiler(machine))


def profile_pipelining_window(
    dataset: Any, window: int, *, use_streams: bool, **config: Any
) -> Tuple[Profile, Profile, PipelineEstimate, int]:
    """EvolveGCN-O over its first ``window`` snapshots (Sec. 5.2.1 / Fig. 10).

    Returns the sequential baseline's profile, the pipelined schedule's, the
    analytic estimate from the baseline's breakdown, and the number of
    snapshots the dataset had to give.
    """
    with warm_window("evolvegcn-o", dataset, window, **config) as (model, snapshots, profiler):
        with profiler.capture("evolvegcn-sequential"):
            for snapshot in snapshots:
                model.inference_iteration(snapshot)
    sequential = profiler.last_profile
    with warm_window("evolvegcn-o", dataset, window, **config) as (model, snapshots, profiler):
        with profiler.capture("evolvegcn-pipelined"):
            PipelinedEvolveGCN(model, use_streams=use_streams).run_window(snapshots)
    analytic = estimate_pipeline_speedup(compute_breakdown(sequential), "RNN", "GNN")
    return (sequential, profiler.last_profile, analytic, len(snapshots))


class Panel(NamedTuple):
    """One sweep line of a figure: a model on a dataset over one config field."""

    #: Panel id in the paper's figure.
    panel: str
    #: Model table name (see :data:`repro.models.registry.MODELS`).
    model: str
    dataset: str
    #: ``"cpu"`` / ``"gpu"``, in row order.
    devices: Tuple[str, ...] = ("gpu",)
    #: Swept config field; ``None`` is a single point, reported by its dataset.
    field: Optional[str] = None
    values: Tuple[Any, ...] = ()
    #: The paper's own sweep (``paper_scale=True``); empty = same as ``values``.
    paper_values: Tuple[Any, ...] = ()
    #: Config fields held constant along the line.
    fixed: Mapping[str, Any] = {}
    #: What the figure calls the swept parameter when not by its field name.
    parameter: Optional[str] = None
    #: Extra columns every row of the line carries.
    labels: Mapping[str, Any] = {}


class Point(NamedTuple):
    """One configuration of a panel table: what to build, and on what."""

    panel: Panel
    parameter: str
    value: Any
    device: str
    dataset: Any
    config: Dict[str, Any]


def panel_points(
    panels: Sequence[Panel], scale: str, paper_scale: bool = False
) -> Iterator[Point]:
    """Every configuration of a panel table in row order: panel, value, device.

    Each dataset is loaded once, at ``scale``, and shared by the points on it.
    """
    loaded: Dict[str, Any] = {}
    for panel in panels:
        if panel.dataset not in loaded:
            loaded[panel.dataset] = load_dataset(panel.dataset, scale=scale)
        if panel.field is None:
            sweep = [(panel.dataset, {})]
        else:
            values = panel.paper_values if paper_scale and panel.paper_values else panel.values
            sweep = [(value, {panel.field: value}) for value in values]
        parameter = panel.parameter or panel.field or "dataset"
        for value, swept in sweep:
            for device in panel.devices:
                config = {**panel.fixed, **swept}
                yield Point(panel, parameter, value, device, loaded[panel.dataset], config)


def profile_panels(
    panels: Sequence[Panel], scale: str, paper_scale: bool = False, iterations: int = 1
) -> Iterator[Tuple[Point, DGNNModel, List[Profile]]]:
    """:func:`profile_cell` over every point of a panel table."""
    for point in panel_points(panels, scale, paper_scale):
        model, profiles = profile_cell(
            point.panel.model, point.dataset, use_gpu=point.device == "gpu",
            iterations=iterations, **point.config,
        )
        yield (point, model, profiles)


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
