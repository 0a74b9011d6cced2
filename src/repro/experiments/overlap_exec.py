"""Executed vs analytic overlap/pipelining speedups (paper Sec. 5).

The seed repository could only *estimate* the paper's Sec. 5 proposals
analytically (``max(host, device)`` over a measured breakdown).  With the
stream-based execution engine the same schedules actually execute:

* **TGAT sampling/compute overlap** (Sec. 5.1.1) -- an
  :class:`~repro.optim.OverlappedRunner` prepares batch ``i+1``'s temporal
  neighbourhood sampling on a named CPU stream while the device computes
  batch ``i``.
* **EvolveGCN-O cross-time-step pipelining** (Sec. 5.2.1 / Fig. 10) -- a
  :class:`~repro.optim.PipelinedEvolveGCN` issues the weight-evolution RNN
  and the per-snapshot GNN on separate GPU streams joined by weight-ready
  events.

For each model the experiment reports the measured baseline, the *executed*
optimized schedule, and the corresponding analytic estimate, plus the
relative disagreement between executed and analytic speedup.  On the default
small-scale configurations the two agree within 15%, which is the evidence
that the analytic estimators the earlier figures rely on are trustworthy.
"""

from __future__ import annotations

from ..datasets import load as load_dataset
from ..optim import OverlappedRunner, estimate_overlap_speedup
from .runner import ExperimentResult, profile_pipelining_window, warm_window

ITERATIONS = 6
WINDOW = 4


def _speedup_error(executed: float, analytic: float) -> float:
    """Relative disagreement between executed and analytic speedups."""
    return abs(executed - analytic) / analytic if analytic > 0 else float("inf")


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Execute both optimized schedules and compare against the estimators."""
    result = ExperimentResult(
        experiment="overlap_exec",
        notes=(
            "executed rows run the stream-based schedulers on the simulator; "
            "analytic rows are the corresponding steady-state estimates from "
            "the measured baseline; speedup_error is the relative "
            "disagreement between executed and analytic speedup."
        ),
    )

    # -- TGAT: sampling/compute overlap, executed -------------------------------
    wikipedia = load_dataset("wikipedia", scale=scale)
    tgat = {"num_neighbors": 50, "batch_size": 16, "seed": seed}

    with warm_window("tgat", wikipedia, ITERATIONS, **tgat) as (model, batches, profiler):
        baseline = OverlappedRunner(model).run_sequential(batches)
        with profiler.capture("tgat-baseline"):
            model.inference_iteration(batches[-1])
    analytic = estimate_overlap_speedup(profiler.last_profile)

    with warm_window("tgat", wikipedia, ITERATIONS, **tgat) as (model, batches, _):
        runner = OverlappedRunner(model)
        # Prime the prefetch stream so the measured iterations are steady state.
        runner.prefetch(batches[0])
        overlapped = runner.run(batches)

    baseline_iter_ms = baseline.steady_state_ms()
    executed_iter_ms = overlapped.steady_state_ms()
    executed_speedup = baseline_iter_ms / executed_iter_ms
    result.add_row(
        model="tgat", configuration="baseline", mode="executed",
        iteration_ms=round(baseline_iter_ms, 3), speedup=1.0,
    )
    result.add_row(
        model="tgat", configuration="overlapped", mode="executed",
        iteration_ms=round(executed_iter_ms, 3),
        speedup=round(executed_speedup, 3),
        speedup_error=round(_speedup_error(executed_speedup, analytic.speedup), 3),
    )
    result.add_row(
        model="tgat", configuration="overlapped", mode="analytic",
        iteration_ms=round(analytic.overlapped_ms, 3),
        speedup=round(analytic.speedup, 3), bound_by=analytic.bound_by,
    )

    # -- EvolveGCN-O: cross-time-step pipelining, executed ----------------------
    # EvolveGCN weights are seeded at an offset so the default seed=0 keeps
    # the config's historic seed (3) -- and with it the byte-identical
    # default rows -- while distinct experiment seeds stay distinct.
    bitcoin = load_dataset("bitcoin-alpha", scale=scale)
    sequential_profile, pipelined_profile, pipeline_analytic, window = profile_pipelining_window(
        bitcoin, WINDOW, use_streams=True, seed=3 + seed
    )

    pipelined_speedup = sequential_profile.elapsed_ms / max(pipelined_profile.elapsed_ms, 1e-9)
    result.add_row(
        model="evolvegcn", configuration="sequential", mode="executed",
        iteration_ms=round(sequential_profile.elapsed_ms, 3), speedup=1.0,
        window=window,
    )
    result.add_row(
        model="evolvegcn", configuration="pipelined", mode="executed",
        iteration_ms=round(pipelined_profile.elapsed_ms, 3),
        speedup=round(pipelined_speedup, 3),
        speedup_error=round(_speedup_error(pipelined_speedup, pipeline_analytic.speedup), 3),
        window=window,
    )
    result.add_row(
        model="evolvegcn", configuration="pipelined", mode="analytic",
        iteration_ms=round(pipeline_analytic.pipelined_ms, 3),
        speedup=round(pipeline_analytic.speedup, 3), window=window,
    )
    return result
