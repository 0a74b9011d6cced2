"""Executable overlap/pipelining schedulers (paper Sec. 5, executed)."""

import numpy as np
import pytest

from repro.core import Profiler, compute_breakdown
from repro.datasets import load
from repro.hw import Machine
from repro.models.evolvegcn import EvolveGCN, EvolveGCNConfig
from repro.models.tgat import TGAT, TGATConfig
from repro.optim import (
    OverlappedRunner,
    PipelinedEvolveGCN,
    estimate_overlap_speedup,
    estimate_pipeline_speedup,
)

TGAT_CONFIG = TGATConfig(num_neighbors=10, batch_size=8)


def tgat_setup(scale="tiny", config=TGAT_CONFIG, batches=4):
    machine = Machine.cpu_gpu()
    dataset = load("wikipedia", scale=scale)
    with machine.activate():
        model = TGAT(machine, dataset, config)
        batch_list = list(model.iteration_batches())[:batches]
        model.warm_up(batch_list[0])
    return (machine, model, batch_list)


class TestOverlappedRunner:
    def test_requires_overlap_protocol(self):
        machine = Machine.cpu_gpu()
        dataset = load("bitcoin-alpha", scale="tiny")
        with machine.activate():
            model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant="O"))
        with pytest.raises(TypeError):
            OverlappedRunner(model)

    def test_empty_run_is_harmless(self):
        machine, model, _ = tgat_setup(batches=1)
        with machine.activate():
            result = OverlappedRunner(model).run([])
        assert result.outputs == []
        assert result.steady_state_ms() == 0.0

    def test_outputs_match_sequential_numerics(self):
        machine, model, batches = tgat_setup()
        with machine.activate():
            sequential = OverlappedRunner(model).run_sequential(batches)
        machine2, model2, batches2 = tgat_setup()
        with machine2.activate():
            runner = OverlappedRunner(model2)
            overlapped = runner.run(batches2)
        assert len(sequential.outputs) == len(overlapped.outputs)
        for expected, actual in zip(sequential.outputs, overlapped.outputs):
            assert np.allclose(expected.data, actual.data)

    def test_overlap_is_not_slower(self):
        machine, model, batches = tgat_setup()
        with machine.activate():
            sequential = OverlappedRunner(model).run_sequential(batches)
        machine2, model2, batches2 = tgat_setup()
        with machine2.activate():
            runner = OverlappedRunner(model2)
            runner.prefetch(batches2[0])
            overlapped = runner.run(batches2)
        assert overlapped.steady_state_ms() <= sequential.steady_state_ms() + 1e-6

    def test_sampling_runs_on_prefetch_stream(self):
        machine, model, batches = tgat_setup(batches=2)
        with machine.activate():
            runner = OverlappedRunner(model)
            runner.run(batches)
        stream = runner.stream
        assert stream.busy_ms() > 0
        assert any(
            e.name == "temporal_neighbor_sampling"
            for e in machine.events
            if e.resource == machine.cpu.name and e.stream == runner.STREAM_NAME
        )

    def test_executed_speedup_close_to_analytic_on_small_config(self):
        """Acceptance: executed within 15% of the analytic estimate."""
        config = TGATConfig(num_neighbors=50, batch_size=16)
        machine, model, batches = tgat_setup(scale="small", config=config, batches=5)
        with machine.activate():
            sequential = OverlappedRunner(model).run_sequential(batches)
            profiler = Profiler(machine)
            with profiler.capture("analytic"):
                model.inference_iteration(batches[-1])
        analytic = estimate_overlap_speedup(profiler.last_profile)

        machine2, model2, batches2 = tgat_setup(scale="small", config=config, batches=5)
        with machine2.activate():
            runner = OverlappedRunner(model2)
            runner.prefetch(batches2[0])
            overlapped = runner.run(batches2)
        executed_speedup = sequential.steady_state_ms() / overlapped.steady_state_ms()
        assert executed_speedup == pytest.approx(analytic.speedup, rel=0.15)


class TestPipelinedEvolveGCN:
    @staticmethod
    def window(scale="tiny", count=3):
        dataset = load("bitcoin-alpha", scale=scale)
        return (dataset, [dataset.snapshots[i] for i in range(count)])

    def test_rejects_h_variant(self):
        machine = Machine.cpu_gpu()
        dataset, _ = self.window()
        with machine.activate():
            model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant="H"))
        with pytest.raises(ValueError):
            PipelinedEvolveGCN(model)

    def test_outputs_match_hoisted_run(self):
        dataset, snapshots = self.window()
        machine = Machine.cpu_gpu()
        with machine.activate():
            model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant="O", seed=7))
            model.warm_up(snapshots[0])
            streamed = PipelinedEvolveGCN(model, use_streams=True).run_window(snapshots)
        machine2 = Machine.cpu_gpu()
        with machine2.activate():
            model2 = EvolveGCN(machine2, dataset, EvolveGCNConfig(variant="O", seed=7))
            model2.warm_up(snapshots[0])
            hoisted = PipelinedEvolveGCN(model2, use_streams=False).run_window(snapshots)
        for expected, actual in zip(hoisted, streamed):
            assert np.allclose(expected.data, actual.data)

    def test_rnn_and_gnn_issue_on_separate_streams(self):
        dataset, snapshots = self.window()
        machine = Machine.cpu_gpu()
        with machine.activate():
            model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant="O"))
            model.warm_up(snapshots[0])
            PipelinedEvolveGCN(model).run_window(snapshots)
        gpu_name = machine.gpu.name
        on_gpu = [e for e in machine.events if e.resource == gpu_name]
        rnn_events = [e for e in on_gpu if e.stream == PipelinedEvolveGCN.RNN_STREAM]
        gnn_events = [e for e in on_gpu if e.stream == PipelinedEvolveGCN.GNN_STREAM]
        assert rnn_events and gnn_events
        # Each snapshot's GNN starts only after its weights are ready.
        first_gnn_kernel = next(e for e in gnn_events if e.kind == "kernel")
        per_snapshot = len([e for e in rnn_events if e.kind == "kernel"]) // len(snapshots)
        first_weights_done = sorted(
            e.end_ms for e in rnn_events if e.kind == "kernel"
        )[per_snapshot - 1]
        assert first_gnn_kernel.start_ms >= first_weights_done - 1e-9

    def test_pipelined_window_is_not_slower(self):
        dataset, snapshots = self.window()
        machine = Machine.cpu_gpu()
        with machine.activate():
            model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant="O"))
            model.warm_up(snapshots[0])
            profiler = Profiler(machine)
            with profiler.capture("seq"):
                for snapshot in snapshots:
                    model.inference_iteration(snapshot)
        sequential_ms = profiler.last_profile.elapsed_ms
        machine2 = Machine.cpu_gpu()
        with machine2.activate():
            model2 = EvolveGCN(machine2, dataset, EvolveGCNConfig(variant="O"))
            model2.warm_up(snapshots[0])
            profiler2 = Profiler(machine2)
            with profiler2.capture("pip"):
                PipelinedEvolveGCN(model2).run_window(snapshots)
        assert profiler2.last_profile.elapsed_ms <= sequential_ms + 1e-6

    def test_executed_speedup_close_to_analytic_on_small_config(self):
        """Acceptance: executed within 15% of the analytic estimate."""
        dataset, snapshots = self.window(scale="small", count=4)
        machine = Machine.cpu_gpu()
        with machine.activate():
            model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant="O"))
            model.warm_up(snapshots[0])
            profiler = Profiler(machine)
            with profiler.capture("seq"):
                for snapshot in snapshots:
                    model.inference_iteration(snapshot)
        sequential = profiler.last_profile
        analytic = estimate_pipeline_speedup(compute_breakdown(sequential), "RNN", "GNN")
        machine2 = Machine.cpu_gpu()
        with machine2.activate():
            model2 = EvolveGCN(machine2, dataset, EvolveGCNConfig(variant="O"))
            model2.warm_up(snapshots[0])
            profiler2 = Profiler(machine2)
            with profiler2.capture("pip"):
                PipelinedEvolveGCN(model2).run_window(snapshots)
        executed_speedup = sequential.elapsed_ms / profiler2.last_profile.elapsed_ms
        assert executed_speedup == pytest.approx(analytic.speedup, rel=0.15)
