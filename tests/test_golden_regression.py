"""Seed-equivalence golden tests for the paper artefacts.

Each golden file under ``tests/golden/`` is the canonical JSON serialization
of one experiment's rows+notes on its default config at ``tiny`` scale.  The
tests assert the *serialized bytes* match, so any refactor that drifts a
figure/table number -- a reordered kernel, a changed cost constant, a float
that moved by one ulp -- fails loudly instead of silently rewriting the
paper's numbers.  ``bottlenecks.json`` pins the analysis layer the same way:
the four detectors, the CPU-busy/GPU-idle fraction and the utilization
reports for every model on both machines, floats unrounded.

Regenerate (only when a change is *supposed* to move the numbers, and say so
in the commit message)::

    PYTHONPATH=src python tests/test_golden_regression.py --regenerate
"""

import json
import os

import pytest

from repro.core import analyze_profile, cpu_busy_gpu_idle_fraction, utilization_report
from repro.experiments import run_experiment
from repro.experiments.runner import new_machine, profile_single_iteration
from repro.models import MODEL_NAMES, build_model

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Experiments pinned by golden files, with the config the goldens captured.
GOLDEN_EXPERIMENTS = {
    "table1": {},
    "table2": {"scale": "tiny"},
    "fig6": {"scale": "tiny"},
    "fig7": {"scale": "tiny"},
    "fig8": {"scale": "tiny"},
    "fig9": {"scale": "tiny"},
}


def canonical_json(name, kwargs):
    """Deterministic byte-for-byte serialization of one experiment run."""
    result = run_experiment(name, **kwargs)
    payload = {
        "experiment": result.experiment,
        "config": dict(kwargs),
        "rows": result.rows,
        "notes": result.notes,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def bottlenecks_json():
    """The bottleneck detectors and utilization reports over the model zoo.

    Floats are serialized unrounded (``json`` writes ``repr``), so the file
    pins every detector input to the last bit, not just the rounded rows.
    """
    rows = []
    for name in MODEL_NAMES:
        for use_gpu in (False, True):
            machine = new_machine(use_gpu=use_gpu)
            with machine.activate():
                model = build_model(name, machine, scale="tiny")
            profile, _ = profile_single_iteration(model, machine)
            report = analyze_profile(profile)
            utilization = {}
            for kind in ("cpu", "gpu"):
                util = utilization_report(profile, device_kind=kind)
                utilization[kind] = {
                    "device": util.device,
                    "average": util.average,
                    "peak": util.peak,
                    "busy_ms": util.busy_ms,
                    "idle_ms": util.idle_ms,
                    "longest_idle_gap_ms": util.longest_idle_gap_ms,
                    "series": [[p.time_ms, p.utilization] for p in util.series],
                }
            row = {
                "model": name,
                "machine": "cpu_gpu" if use_gpu else "cpu_only",
                "findings": report.as_rows(),
                "exact": [
                    {"bottleneck": f.name, "severity": f.severity, "evidence": f.evidence}
                    for f in report.findings
                ],
                "cpu_busy_gpu_idle_fraction": cpu_busy_gpu_idle_fraction(profile),
                "utilization": utilization,
            }
            rows.append(row)
    payload = {"golden": "bottlenecks", "config": {"scale": "tiny"}, "rows": rows}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_matches_golden(name):
    path = golden_path(name)
    assert os.path.exists(path), (
        f"golden file {path} is missing; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_regression.py --regenerate`"
    )
    with open(path, "r", encoding="utf-8") as handle:
        expected = handle.read()
    actual = canonical_json(name, GOLDEN_EXPERIMENTS[name])
    assert actual == expected, (
        f"{name} output drifted from the golden file.  If the change is "
        "intentional, regenerate the goldens and justify the drift in the "
        "commit message."
    )


def test_bottlenecks_match_golden():
    with open(golden_path("bottlenecks"), "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert bottlenecks_json() == expected, (
        "the bottleneck detectors or utilization reports drifted from the golden file"
    )


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    contents = {name: canonical_json(name, kwargs) for name, kwargs in GOLDEN_EXPERIMENTS.items()}
    contents["bottlenecks"] = bottlenecks_json()
    for name, text in sorted(contents.items()):
        path = golden_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
