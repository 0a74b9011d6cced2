"""Tape books: a shape tape one replica records replays on every like replica.

Replicas that ``build_replicas`` / ``build_cluster_replicas`` create share
one book (``DGNNModel.join_tape_book``), and a replica that meets a tape
recorded under other device names keeps a renamed copy (``Tape.renamed``).
The differential: serving with shared books and with private books (the
sharing step made a no-op) is byte-identical -- every node's log rows, the
request stamps and the host clocks -- while the shared run records fewer
tapes.  The refusals: replicas that differ in config or in GPU spec (other
than the name), or whose tape names a third device, each record their own.
"""

import dataclasses

import pytest

import repro.serve.cluster as cluster_module
import repro.serve.placement as placement_module
from repro.datasets import load as load_dataset
from repro.fuzz.program import signature
from repro.hw.machine import Machine
from repro.hw.spec import A100_SXM, MachineSpec
from repro.hw.tape import Tape
from repro.models.base import DGNNModel
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import build_replicas, build_server, make_requests
from repro.tensor import Tensor, meta

CONFIG = TGATConfig(num_neighbors=5, batch_size=16, seed=0)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("wikipedia", scale="tiny")


def _totals(models):
    totals = {"recorded": 0, "replayed": 0, "direct": 0}
    for model in models:
        for name, count in model.replay_stats.items():
            totals[name] += count
    return totals


def _warm(spec, **kwargs):
    machine = Machine.from_spec(spec, backend="shape", **kwargs)
    for gpu in machine.gpus:
        machine.initialize_gpu(model_bytes=1 << 16, device=gpu)
    return machine


# -- the tape side: the devices a tape names, and renamed copies ---------------


def _one_gpu_script(machine, gpu):
    cpu = machine.cpu
    machine.launch_kernel(cpu, "host_gather", 3.0e5, 2048.0)
    with machine.region("outer"):
        machine.transfer(cpu, gpu, 4096, name="ids")
        machine.launch_kernel(gpu, "gemm", 2.0e6, 4096.0)
        machine.launch_kernel(gpu, "softmax", 1.0e4, 512.5)
        machine.alloc(gpu, 512, tag="scores")
        machine.transfer(gpu, cpu, 256, name="scores", non_blocking=True)


def test_a_tape_names_every_device_it_charges():
    machine = _warm("2xA100-pcie")
    _, tape = machine.record(lambda: _one_gpu_script(machine, machine.gpus[0]))
    assert tape.devices() == {machine.cpu.name, machine.gpus[0].name}

    def peer():
        machine.transfer(machine.gpus[0], machine.gpus[1], 2048, name="peer_rows")

    _, peer_tape = machine.record(peer)
    assert peer_tape.devices() == {gpu.name for gpu in machine.gpus}


def test_a_renamed_copy_replays_as_the_block_run_on_the_other_gpu():
    recorder = _warm("2xA100-pcie")
    _, tape = recorder.record(lambda: _one_gpu_script(recorder, recorder.gpus[0]))
    entries, segments = list(tape.entries), list(tape.segments)
    cpu, gpu0, gpu1 = (device.name for device in recorder.devices)
    copy = tape.renamed({cpu: cpu, gpu0: gpu1})
    # The original is untouched; the copy has its shape under the new names.
    assert (tape.entries, tape.segments) == (entries, segments)
    assert copy.devices() == {cpu, gpu1}
    assert (copy.events, len(copy.entries), len(copy.segments)) == (
        tape.events, len(entries), len(segments),
    )
    direct, replayed = _warm("2xA100-pcie"), _warm("2xA100-pcie")
    _one_gpu_script(direct, direct.gpus[1])
    replayed.replay(copy)
    assert signature(replayed) == signature(direct)
    assert replayed.host_time_ms == direct.host_time_ms
    assert replayed.device_flops_totals() == direct.device_flops_totals()


# -- the model side: one book per set of like replicas --------------------------


def _iterate(models, batches):
    """Warm each model, then run every batch through each one (prepare+compute)."""
    outputs = []
    for model in models:
        with model.machine.activate():
            model.warm_up(batches[0])
    for batch in batches:
        for model in models:
            with model.machine.activate():
                outputs.append(model.compute_iteration(batch, model.prepare_iteration(batch)))
    return outputs


def _batches(dataset, count=3):
    return list(dataset.stream.iter_batches(CONFIG.batch_size))[:count]


def test_a_like_replica_replays_a_copy_of_its_siblings_tape(dataset, monkeypatch):
    copies = []
    renamed = Tape.renamed

    def spy(tape, names):
        copies.append(names)
        return renamed(tape, names)

    monkeypatch.setattr(Tape, "renamed", spy)
    machine = Machine.from_spec("2xA100-nvlink", backend="shape")
    with machine.activate():
        first, second = build_replicas(machine, lambda: TGAT(machine, dataset, CONFIG))
    outputs = _iterate([first, second], _batches(dataset))
    assert first.replay_stats == {"recorded": 1, "replayed": 2, "direct": 0}
    assert second.replay_stats == {"recorded": 0, "replayed": 3, "direct": 0}
    # One copy, made once, with the recorder's two names mapped to its own.
    cpu, gpu0, gpu1 = (device.name for device in machine.devices)
    assert copies == [{cpu: cpu, gpu0: gpu1}]
    # The placeholder of a replay from the copy lives on the replaying GPU.
    for output in outputs[1::2]:
        assert output.device == second.compute_device and meta.is_placeholder(output.data)


def _slow_a100_machine():
    """A one-GPU box whose GPU is named like 1xA100's but runs at half peak."""
    spec = MachineSpec(
        name="1xA100-half", gpu=dataclasses.replace(A100_SXM, peak_gflops=A100_SXM.peak_gflops / 2)
    )
    return Machine.from_spec(spec, backend="shape")


def test_a_gpu_of_another_spec_records_its_own_tapes(dataset):
    fast, slow = Machine.from_spec("1xA100", backend="shape"), _slow_a100_machine()
    assert fast.gpus[0].name == slow.gpus[0].name
    models = []
    for machine in (fast, slow):
        with machine.activate():
            models.append(TGAT(machine, dataset, CONFIG))
    placement_module.share_tape_books(models)
    _iterate(models, _batches(dataset))
    for model in models:
        assert model.replay_stats == {"recorded": 1, "replayed": 2, "direct": 0}
    # The slow box charged its own durations: exactly what it does alone.
    alone = _slow_a100_machine()
    with alone.activate():
        lone = TGAT(alone, dataset, CONFIG)
    _iterate([lone], _batches(dataset))
    assert signature(slow) == signature(alone)
    assert slow.host_time_ms == alone.host_time_ms


def test_replicas_of_another_config_record_their_own_tapes(dataset):
    configs = iter([CONFIG, dataclasses.replace(CONFIG, seed=1)])
    machine = Machine.from_spec("2xA100-nvlink", backend="shape")
    with machine.activate():
        models = build_replicas(machine, lambda: TGAT(machine, dataset, next(configs)))
    _iterate(models, _batches(dataset))
    for model in models:
        assert model.replay_stats == {"recorded": 1, "replayed": 2, "direct": 0}


class _PeerWriter(DGNNModel):
    """One taped site; with ``peer`` its block also writes to the next GPU,
    the way a shard's neighbour gather reads another shard's device."""

    def run(self, peer):
        machine = self.machine
        device = self.compute_device
        gpus = machine.gpus
        target = gpus[(gpus.index(device) + 1) % len(gpus)]

        def compute():
            machine.launch_kernel(device, "gemm", 2.0e6, 4096.0)
            if peer:
                machine.transfer(device, target, 2048, name="peer_rows")
            return Tensor(meta.placeholder((2, 3)), device)

        with machine.activate():
            return self._replayed("site", compute)


@pytest.mark.parametrize("peer", [False, True])
def test_a_tape_naming_a_third_device_stays_with_its_recorder(peer):
    machine = _warm("2xA100-nvlink")
    with machine.activate():
        models = build_replicas(machine, lambda: _PeerWriter(machine))
    for _ in range(3):
        for model in models:
            model.run(peer)
    first, second = models
    assert first.replay_stats == {"recorded": 1, "replayed": 2, "direct": 0}
    if peer:
        assert second.replay_stats == {"recorded": 1, "replayed": 2, "direct": 0}
    else:
        assert second.replay_stats == {"recorded": 0, "replayed": 3, "direct": 0}
    # The two are alike either way: the tape, not the pair, decides.
    assert second.join_tape_book(first)


# -- the differential: shared books serve exactly as private books ---------------

SERVING = {
    "replicate": ("4xA100-nvlink", {"placement": "replicate"}),
    "cluster": ("2n-2xA100-eth", {}),
}


def _serve(dataset, topology, **placement):
    config = TGATConfig(num_neighbors=10, batch_size=64, seed=0)
    server = build_server(
        topology,
        lambda machine: TGAT(machine, dataset, config),
        backend="shape",
        max_batch_size=16,
        batch_timeout_ms=4.0,
        slo_ms=50.0,
        **placement,
    )
    requests = make_requests(dataset.stream, "poisson", 900.0, 400.0, seed=3, slo_ms=50.0)
    report = server.serve(requests, label="book", arrival_name="poisson")
    machines = list(server.cluster.nodes) if server.cluster is not None else [server.machine]
    observed = {
        "rows": [list(machine.events.rows) for machine in machines],
        "host_time_ms": [machine.host_time_ms for machine in machines],
        "requests": [
            (r.request_id, r.arrival_ms, r.dispatched_ms, r.completed_ms, r.batch_size, r.replica)
            for r in report.requests
        ],
        "summary": report.summary(),
    }
    return observed, _totals(server.replicas)


@pytest.mark.parametrize("case", sorted(SERVING))
def test_shared_books_serve_byte_identical_to_private_books(dataset, monkeypatch, case):
    topology, placement = SERVING[case]
    shared, shared_stats = _serve(dataset, topology, **placement)
    for module in (placement_module, cluster_module):
        monkeypatch.setattr(module, "share_tape_books", lambda replicas: None)
    private, private_stats = _serve(dataset, topology, **placement)
    assert len(shared["rows"]) == (2 if case == "cluster" else 1)
    assert all(len(row) == 11 for rows in shared["rows"] for row in rows)
    assert shared == private
    # Not vacuous: the same call sites, fewer of them recorded.
    assert 0 < shared_stats["recorded"] < private_stats["recorded"]
    assert shared_stats["direct"] == private_stats["direct"]
    assert sum(shared_stats.values()) == sum(private_stats.values())
