"""Shared experiment plumbing.

Every offline experiment follows the recipe the paper's artifact uses: build a
fresh simulated machine for the configuration, construct the model, perform
GPU warm-up outside the measured window, profile one (or a few) inference
iterations, and extract the quantity the figure/table reports.  The recipe is
written once, as :func:`profile_cell`; a figure is a table of :class:`Panel`
rows walked by :func:`profile_panels` plus its own row formatter.  The serving
sweeps have the same shape: a table of :meth:`ServingSweep.cell` calls plus a
row formatter.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
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
from ..domain import NON_NEGATIVE_INT, POSITIVE_INT
from ..hw.machine import Machine
from ..models.base import DGNNModel
from ..models.registry import build_on_fresh_machine
from ..models.tgat import TGAT, TGATConfig
from ..optim import PipelinedEvolveGCN, PipelineEstimate, estimate_pipeline_speedup
from ..serve import ServingReport, build_server, make_requests


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
        """Render the rows as a plain-text table (the first ``max_rows`` rows)."""
        if max_rows is not None:
            NON_NEGATIVE_INT.check("max_rows", max_rows)
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
    POSITIVE_INT.check("num_iterations", num_iterations)
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


#: What every serving sweep holds: the batch a server forms, how long it
#: waits to fill one, TGAT's sampling fan-out, and the arrival process
#: (a :func:`~repro.serve.make_requests` name and its parameters).
MAX_BATCH_SIZE = 8
BATCH_TIMEOUT_MS = 4.0
NUM_NEIGHBORS = 10
POISSON: Tuple[str, Mapping[str, Any]] = ("poisson", {})


class ServingSweep:
    """What the serving sweeps share: dataset, model factory, capacity, cell.

    Loads wikipedia at ``scale``, fixes the TGAT configuration every cell
    serves, and measures the blocking cost of one request on a throwaway
    ``calibration_topology`` machine: two full batches through
    ``inference_iteration`` (the second excludes first-iteration effects),
    divided by the batch size.  Arrival rates are fractions of the implied
    ``capacity_rps``, which keeps queueing behaviour stable across dataset
    scales.  A sweep is a table of :meth:`cell` calls; sweeps differ here
    only in the calibration topology, ``slo_ms`` and ``events_per_request``.
    """

    def __init__(
        self,
        calibration_topology: str,
        *,
        scale: str,
        seed: int,
        backend: str,
        slo_ms: float,
        events_per_request: int,
    ) -> None:
        self.dataset = dataset = load_dataset("wikipedia", scale=scale)
        self.seed, self.backend = seed, backend
        self.slo_ms, self.events_per_request = slo_ms, events_per_request
        events = MAX_BATCH_SIZE * events_per_request
        config = TGATConfig(num_neighbors=NUM_NEIGHBORS, batch_size=events, seed=seed)

        def factory(machine: Machine) -> TGAT:
            return TGAT(machine, dataset, config)

        self.factory = factory
        machine = Machine.from_spec(calibration_topology, backend=backend)
        batches = [dataset.stream.slice_indices(i * events, (i + 1) * events) for i in range(2)]
        with machine.activate():
            model = factory(machine)
            model.warm_up(batches[0])
            model.inference_iteration(batches[0])
            start = machine.host_time_ms
            model.inference_iteration(batches[1])
            self.per_request_ms = (machine.host_time_ms - start) / MAX_BATCH_SIZE
        self.capacity_rps = 1000.0 / self.per_request_ms if self.per_request_ms > 0 else 1000.0

    def cell(
        self,
        topology: str,
        label: str,
        rate_rps: float,
        duration_ms: float,
        *,
        arrival: Tuple[str, Mapping[str, Any]] = POISSON,
        warm: bool = False,
        **options: Any,
    ) -> ServingReport:
        """One run: fresh requests -> a fresh server on a fresh machine -> serve.

        ``options`` go to :func:`~repro.serve.build_server`; no two cells
        share a server, since runs must not share timelines.  With ``warm``
        the same requests are served once first, outside the measured
        window, as a preceding traffic window would: caches filled,
        allocator warm.
        """
        name, parameters = arrival
        requests = make_requests(
            self.dataset.stream,
            name,
            rate_rps,
            duration_ms,
            seed=self.seed,
            events_per_request=self.events_per_request,
            slo_ms=self.slo_ms,
            **parameters,
        )
        server = build_server(
            topology,
            self.factory,
            backend=self.backend,
            max_batch_size=MAX_BATCH_SIZE,
            batch_timeout_ms=BATCH_TIMEOUT_MS,
            slo_ms=self.slo_ms,
            seed=self.seed,
            **options,
        )
        if warm:
            server.serve(requests, label=f"{label}-warm", arrival_name=name)
        return server.serve(requests, label=label, arrival_name=name, warm_up=not warm)
