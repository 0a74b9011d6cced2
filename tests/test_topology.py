"""Multi-GPU machine topology: naming, routing, warm-up, equivalence."""

import pytest

from repro.hw import Machine, MachineSpec, NVLINK3, machine_spec


def exercise(machine):
    """A small deterministic program touching warm-up, kernel and transfers."""
    machine.initialize_gpu(model_bytes=1_000)
    machine.launch_kernel(machine.gpu, "k", 1e6, 1e4)
    machine.transfer(machine.gpu, machine.cpu, 5_000)
    machine.synchronize()
    return [(e.kind, e.name, e.resource, e.start_ms, e.end_ms, e.stream) for e in machine.events]


class TestSingleGpuEquivalence:
    def test_from_spec_1xa6000_matches_cpu_gpu_byte_for_byte(self):
        assert exercise(Machine.cpu_gpu()) == exercise(Machine.from_spec("1xA6000"))

    def test_single_gpu_keeps_seed_names(self):
        machine = Machine.from_spec("1xA6000")
        assert machine.gpu.name == "rtx-a6000"
        assert machine.link.name == "pcie-gen4-x16"

    def test_cpu_only_spec(self):
        machine = Machine.from_spec("cpu-only")
        assert not machine.has_gpu
        assert machine.gpu is None
        assert machine.compute_device is machine.cpu


class TestMultiGpuShape:
    def test_gpu_and_link_naming(self):
        machine = Machine.from_spec("4xA100-pcie")
        assert [g.name for g in machine.gpus] == [
            "a100-sxm:0", "a100-sxm:1", "a100-sxm:2", "a100-sxm:3",
        ]
        assert [l.name for l in machine.links] == [
            "pcie-gen4-x16:0", "pcie-gen4-x16:1",
            "pcie-gen4-x16:2", "pcie-gen4-x16:3",
        ]

    def test_nvlink_topology_has_all_to_all_peer_links(self):
        machine = Machine.from_spec("4xA100-nvlink")
        # 4 host links + C(4,2)=6 peer links.
        assert len(machine.links) == 10
        peer = machine.topology.peer_link(machine.gpus[1], machine.gpus[3])
        assert peer is not None
        assert peer is machine.topology.peer_link(machine.gpus[3], machine.gpus[1])

    def test_device_lookup_by_kind_and_index(self):
        machine = Machine.from_spec("2xA100-pcie")
        assert machine.device("gpu") is machine.gpus[0]
        assert machine.device("gpu:1") is machine.gpus[1]
        assert machine.device("a100-sxm:1") is machine.gpus[1]
        with pytest.raises(KeyError):
            machine.device("gpu:7")

    def test_a_negative_index_is_unknown_like_one_past_the_end(self):
        """No negative index reaches a GPU from the end of the tuple."""
        machine = Machine.from_spec("2xA100-pcie")
        for name in ("gpu:-1", "gpu:-2", "gpu:2"):
            with pytest.raises(KeyError, match=rf"^\"unknown device '{name}' on this machine\"$"):
                machine.device(name)

    def test_devices_includes_every_gpu(self):
        machine = Machine.from_spec("4xA100-pcie")
        assert len(machine.devices) == 5  # cpu + 4 gpus

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(name="bad", gpu=None, num_gpus=2)
        with pytest.raises(ValueError):
            MachineSpec(name="bad", num_gpus=1, peer_link=NVLINK3)
        with pytest.raises(KeyError):
            machine_spec("9xH100")


class TestTransferRouting:
    def test_host_to_each_gpu_uses_its_own_link(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        machine.transfer(machine.cpu, machine.gpus[0], 1000)
        machine.transfer(machine.cpu, machine.gpus[1], 1000)
        e0, e1 = machine.events[-2:]
        assert e0.resource == "pcie-gen4-x16:0"
        assert e1.resource == "pcie-gen4-x16:1"

    def test_peer_transfer_is_one_p2p_hop_on_nvlink(self):
        machine = Machine.from_spec("2xA100-nvlink")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        before = len(machine.events)
        machine.transfer(machine.gpus[0], machine.gpus[1], 1_000_000)
        transfers = [e for e in machine.events[before:] if e.kind == "transfer"]
        assert len(transfers) == 1
        assert transfers[0].resource.startswith("nvlink3")
        link = machine.topology.peer_link(machine.gpus[0], machine.gpus[1])
        assert sum(e.bytes for e in transfers if e.resource == link.name) == 1_000_000

    def test_peer_transfer_stages_through_host_links_on_pcie(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        before = len(machine.events)
        machine.transfer(machine.gpus[0], machine.gpus[1], 1_000_000)
        transfers = [e for e in machine.events[before:] if e.kind == "transfer"]
        assert [t.resource for t in transfers] == [
            "pcie-gen4-x16:0", "pcie-gen4-x16:1",
        ]
        # The h2d hop starts only after the d2h hop has landed in host memory.
        assert transfers[1].start_ms >= transfers[0].end_ms

    def test_staged_peer_copy_slower_than_nvlink(self):
        def peer_copy_ms(spec):
            machine = Machine.from_spec(spec)
            for gpu in machine.gpus:
                machine.initialize_gpu(device=gpu)
            start = machine.host_time_ms
            machine.transfer(machine.gpus[0], machine.gpus[1], 4_000_000)
            return machine.host_time_ms - start

        assert peer_copy_ms("2xA100-nvlink") < peer_copy_ms("2xA100-pcie")

    def test_wait_for_source_false_skips_source_compute_backlog(self):
        """A copy of resident data (warm feature rows) must not serialize
        behind unrelated compute queued on the source GPU."""
        machine = Machine.from_spec("2xA100-nvlink")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        machine.synchronize()
        machine.launch_kernel(machine.gpus[0], "busy", 1e12, 0)  # long backlog
        backlog_end = machine.gpus[0].default_stream.free_at
        issued_at = machine.host_time_ms
        assert issued_at < backlog_end  # async launch left the host ahead
        machine.transfer(machine.gpus[0], machine.gpus[1], 1000, wait_for_source=False)
        resident = machine.events[-1]
        assert resident.start_ms < backlog_end
        assert resident.start_ms >= issued_at
        machine.transfer(machine.gpus[0], machine.gpus[1], 1000)
        assert machine.events[-1].start_ms >= backlog_end - 1e-9

    def test_staged_transfer_rejects_explicit_stream(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        stream = machine.links[0].stream("mine")
        with pytest.raises(ValueError):
            machine.transfer(machine.gpus[0], machine.gpus[1], 100, stream=stream)

    def test_non_blocking_uses_each_links_copy_stream(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        machine.transfer(machine.cpu, machine.gpus[1], 1000, non_blocking=True)
        event = machine.events[-1]
        assert event.resource == "pcie-gen4-x16:1"
        assert event.stream == "copy"


class TestPerGpuWarmupAndSync:
    def test_each_gpu_warms_independently(self):
        machine = Machine.from_spec("2xA100-pcie")
        machine.launch_kernel(machine.gpus[1], "k", 1e6, 0)
        assert machine.gpu_ready(machine.gpus[1])
        assert not machine.gpu_ready(machine.gpus[0])
        assert not machine.gpu_context_ready
        machine.launch_kernel(machine.gpus[0], "k", 1e6, 0)
        assert machine.gpu_context_ready

    def test_kernels_on_different_gpus_overlap(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        machine.synchronize()
        # Large kernels so device time dwarfs the host dispatch overhead.
        machine.launch_kernel(machine.gpus[0], "a", 5e10, 0)
        machine.launch_kernel(machine.gpus[1], "b", 5e10, 0)
        a, b = machine.events[-2:]
        assert a.start_ms < b.end_ms and b.start_ms < a.end_ms

    def test_device_synchronize_joins_only_one_gpu(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        machine.synchronize()
        machine.launch_kernel(machine.gpus[0], "short", 1e6, 0)
        machine.launch_kernel(machine.gpus[1], "long", 1e12, 0)
        machine.device_synchronize(machine.gpus[0])
        assert machine.host_time_ms < machine.gpus[1].free_at
        machine.device_synchronize(machine.gpus[1])
        assert machine.host_time_ms >= machine.gpus[1].free_at - 1e-9

    def test_synchronize_drains_every_link(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        machine.transfer(machine.cpu, machine.gpus[1], 10_000_000, non_blocking=True)
        assert machine.links[1].free_at > machine.host_time_ms
        machine.synchronize()
        assert machine.links[1].free_at <= machine.host_time_ms + 1e-9

    def test_placement_context_pins_compute_device(self):
        machine = Machine.from_spec("2xA100-pcie")
        assert machine.compute_device is machine.gpus[0]
        with machine.placement(machine.gpus[1]):
            assert machine.compute_device is machine.gpus[1]
            with machine.placement("cpu"):
                assert machine.compute_device is machine.cpu
            assert machine.compute_device is machine.gpus[1]
        assert machine.compute_device is machine.gpus[0]

    def test_per_device_flop_accounting(self):
        machine = Machine.from_spec("2xA100-pcie")
        for gpu in machine.gpus:
            machine.initialize_gpu(device=gpu)
        machine.launch_kernel(machine.gpus[0], "a", 1e6, 0)
        machine.launch_kernel(machine.gpus[1], "b", 3e6, 0)
        assert machine.device_flops("a100-sxm:0") == pytest.approx(1e6)
        assert machine.device_flops("a100-sxm:1") == pytest.approx(3e6)

    def test_device_utilization_named_explicitly(self):
        machine = Machine.from_spec("2xA100-pcie")
        machine.initialize_gpu(device=machine.gpus[1])
        start = machine.host_time_ms
        machine.launch_kernel(machine.gpus[1], "k", 5e9, 0)
        machine.synchronize()
        end = machine.host_time_ms
        assert machine.device("gpu:1").utilization(start, end) > 0
        assert machine.device("gpu:0").utilization(start, end) == 0
