"""The model table, the offline cell and the panel walk the paper artefacts share."""

import inspect

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import (
    ExperimentResult,
    Panel,
    panel_points,
    profile_cell,
    profile_iterations,
)
from repro.models import DEFAULT_DATASETS, MODEL_NAMES, build_model
from repro.models.registry import MODELS, build_on_fresh_machine

OFFLINE = (
    "table1", "table2", "fig6", "fig7", "fig8", "fig9",
    "warmup_onetime", "ablations", "overlap_exec",
)


def test_names_and_default_datasets_are_read_from_the_model_table():
    # Table 1 order; `benchmarks/` iterates MODEL_NAMES and indexes DEFAULT_DATASETS.
    assert MODEL_NAMES == (
        "jodie", "tgn", "evolvegcn-o", "evolvegcn-h", "tgat", "astgnn", "dyrep", "ldg", "moldgnn",
    )
    assert MODEL_NAMES == tuple(spec.name for spec in MODELS)
    assert DEFAULT_DATASETS == {
        **{spec.name: spec.dataset for spec in MODELS},
        "evolvegcn": "bitcoin-alpha",
    }


def test_build_model_applies_the_rows_fixed_config():
    machine, model = build_on_fresh_machine("EvolveGCN-H", use_gpu=False, scale="tiny")
    assert model.config.variant == "H" and model.machine is machine and not machine.has_gpu
    _, alias = build_on_fresh_machine("evolvegcn", use_gpu=False, scale="tiny", hidden_dim=8)
    assert alias.config.variant == "O" and alias.config.hidden_dim == 8
    with pytest.raises(TypeError):  # the name fixes the variant
        build_model("evolvegcn-o", machine, scale="tiny", variant="H")
    with pytest.raises(KeyError, match="unknown model 'gcn'"):
        build_model("gcn", machine)


def test_profile_iterations_builds_only_the_batches_it_runs():
    machine, model = build_on_fresh_machine("tgn", use_gpu=True, scale="tiny", batch_size=8)
    batches = model.iteration_batches
    built = []

    def counting():
        for batch in batches():
            built.append(batch)
            yield batch

    model.iteration_batches = counting
    profiles = profile_iterations(model, machine, 2)
    assert len(profiles) == 2 and len(built) == 2
    assert [p.label for p in profiles] == ["tgn-iter0", "tgn-iter1"]
    # Warm-up ran outside the first window.
    assert profiles[0].warmup_ms() == 0.0 and machine.host_time_ms > 6000.0


def test_profile_cell_runs_each_cell_on_a_machine_of_its_own():
    first, (one,) = profile_cell("tgn", None, use_gpu=True, scale="tiny", batch_size=8)
    second, (two, _) = profile_cell(
        "tgn", first.dataset, use_gpu=True, iterations=2, batch_size=8
    )
    assert first.machine is not second.machine
    assert one.elapsed_ms == two.elapsed_ms and one.start_ms == two.start_ms


def test_panel_points_walk_panel_then_value_then_device():
    panels = (
        Panel("a", "tgat", "wikipedia", ("cpu", "gpu"), "batch_size", (4, 8), (16,),
              fixed={"num_neighbors": 3}),
        Panel("b", "jodie", "wikipedia", labels={"note": "x"}),
        Panel("c", "tgn", "reddit", field="batch_size", values=(2,), parameter="events"),
    )
    points = list(panel_points(panels, "tiny"))
    assert [(p.panel.panel, p.parameter, p.value, p.device, p.config) for p in points] == [
        ("a", "batch_size", 4, "cpu", {"num_neighbors": 3, "batch_size": 4}),
        ("a", "batch_size", 4, "gpu", {"num_neighbors": 3, "batch_size": 4}),
        ("a", "batch_size", 8, "cpu", {"num_neighbors": 3, "batch_size": 8}),
        ("a", "batch_size", 8, "gpu", {"num_neighbors": 3, "batch_size": 8}),
        ("b", "dataset", "wikipedia", "gpu", {}),
        ("c", "events", 2, "gpu", {"batch_size": 2}),
    ]
    # One load per dataset, shared by the points on it.
    assert points[0].dataset is points[4].dataset is not points[5].dataset
    paper = list(panel_points(panels, "tiny", paper_scale=True))
    assert [p.value for p in paper] == [16, 16, "wikipedia", 2]


@pytest.mark.parametrize("name", OFFLINE)
def test_offline_experiments_take_no_per_sweep_options(name):
    """Another sweep is another panel table, not another keyword argument."""
    parameters = set(inspect.signature(EXPERIMENTS[name]).parameters)
    assert parameters <= {"scale", "paper_scale", "seed"}, parameters


def test_format_table_shows_the_first_max_rows_rows_and_refuses_a_negative_limit():
    result = ExperimentResult("demo", rows=[{"model": "a"}, {"model": "b"}, {"model": "c"}])
    assert result.format_table(max_rows=2).splitlines()[-2:] == ["a    ", "b    "]
    assert result.format_table(max_rows=0).splitlines() == ["demo", "model", "-----"]
    with pytest.raises(ValueError, match="max_rows must be an integer >= 0"):
        result.format_table(max_rows=-1)
