"""Device and interconnect specifications for the hardware simulator.

The paper profiles DGNN inference on an Intel Xeon Gold 6226R CPU and an
NVIDIA RTX A6000 GPU connected over PCIe.  This module captures the
performance-relevant characteristics of those devices as analytic cost-model
parameters.  The absolute numbers are published peak figures derated to
realistic achievable values; what matters for reproducing the paper is the
*relative* behaviour they induce:

* the GPU has a far higher peak throughput but a much larger kernel-launch
  overhead and needs far more work per kernel to approach its peak, so small
  serialized kernels (the temporal-dependency bottleneck) run at a tiny
  fraction of peak;
* the CPU has a small per-op overhead and saturates quickly, so it wins on
  tiny recurrent updates and loses on large dense blocks;
* PCIe bandwidth is an order of magnitude below device memory bandwidth, so
  per-snapshot / per-batch transfers become the data-movement bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..domain import POSITIVE, POSITIVE_INT, Domain


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a compute device used by the cost model.

    Attributes:
        name: Human-readable device name (e.g. ``"xeon-6226r"``).
        kind: Either ``"cpu"`` or ``"gpu"``.
        peak_gflops: Peak single-precision throughput in GFLOP/s.
        mem_bandwidth_gbps: Peak device-memory bandwidth in GB/s.
        launch_overhead_us: Fixed overhead charged to the device for every
            kernel (CUDA launch latency on the GPU, dispatch overhead on the
            CPU).
        host_overhead_us: Time the *host thread* spends issuing one kernel.
            For the GPU this models the asynchronous CUDA launch call; for the
            CPU it is folded into the kernel itself and should be zero.
        saturation_flops: Amount of work (in FLOPs) at which a single kernel
            reaches half of the device's peak throughput.  Large values mean
            the device needs big kernels to be efficient, which is the
            mechanism behind the paper's low-GPU-utilization findings.
        memory_capacity_mb: Device memory capacity, used by the allocator to
            flag (not enforce) over-subscription.
        min_kernel_us: Lower bound on any kernel duration.
    """

    name: str
    kind: str
    peak_gflops: float
    mem_bandwidth_gbps: float
    launch_overhead_us: float
    host_overhead_us: float
    saturation_flops: float
    memory_capacity_mb: float
    min_kernel_us: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu"):
            raise ValueError(f"unknown device kind: {self.kind!r}")
        POSITIVE.check("peak_gflops", self.peak_gflops)
        POSITIVE.check("mem_bandwidth_gbps", self.mem_bandwidth_gbps)
        POSITIVE.check("saturation_flops", self.saturation_flops)

    @property
    def is_gpu(self) -> bool:
        return self.kind == "gpu"

    @property
    def is_cpu(self) -> bool:
        return self.kind == "cpu"

    def effective_gflops(self, flops: float) -> float:
        """Achievable throughput for a kernel performing ``flops`` work.

        Uses a smooth saturation curve ``peak * flops / (flops + s)`` where
        ``s`` is :attr:`saturation_flops`.  A kernel with ``flops == s`` runs
        at half peak; tiny kernels run far below peak.
        """
        if flops <= 0:
            return self.peak_gflops
        return self.peak_gflops * flops / (flops + self.saturation_flops)


@dataclass(frozen=True)
class LinkSpec:
    """Description of a host<->device interconnect (PCIe in the paper).

    Attributes:
        name: Link name.
        bandwidth_gbps: Sustained transfer bandwidth in GB/s.
        latency_us: Fixed per-transfer latency (driver + DMA setup).
        host_overhead_us: Host-side time to issue one copy.
    """

    name: str
    bandwidth_gbps: float
    latency_us: float
    host_overhead_us: float = 2.0

    def transfer_ms(self, nbytes: int) -> float:
        """Duration in milliseconds of one transfer of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        bandwidth_bytes_per_ms = self.bandwidth_gbps * 1e6
        return self.latency_us * 1e-3 + nbytes / bandwidth_bytes_per_ms


@dataclass(frozen=True)
class WarmupSpec:
    """Parameters of the GPU warm-up model (paper Sec. 4.4).

    The paper splits warm-up into (i) one-time model initialization -- CUDA
    context creation, stream capture and uploading the model weights over
    PCIe -- and (ii) per-run lazy initialization / memory allocation that
    grows with the amount of device memory the run touches.

    Attributes:
        context_init_ms: One-time CUDA context creation + stream capture.
        alloc_base_ms: Fixed part of the per-run allocation warm-up.
        alloc_per_mb_ms: Allocation warm-up per MB of peak batch footprint.
    """

    context_init_ms: float = 6200.0
    alloc_base_ms: float = 5.0
    alloc_per_mb_ms: float = 0.035

    def allocation_warmup_ms(self, footprint_mb: float) -> float:
        """Per-run allocation warm-up for a batch touching ``footprint_mb``."""
        if footprint_mb < 0:
            raise ValueError("footprint_mb must be non-negative")
        return self.alloc_base_ms + self.alloc_per_mb_ms * footprint_mb


# -- Presets -----------------------------------------------------------------

#: Intel Xeon Gold 6226R (16 cores, 2.9 GHz).  Peak throughput derated to a
#: realistic sustained value for mixed GEMM / gather workloads.
XEON_6226R = DeviceSpec(
    name="xeon-6226r",
    kind="cpu",
    peak_gflops=450.0,
    mem_bandwidth_gbps=90.0,
    launch_overhead_us=6.0,
    host_overhead_us=0.0,
    saturation_flops=4.0e5,
    memory_capacity_mb=192 * 1024,
)

#: NVIDIA RTX A6000 (10752 CUDA cores, 768 GB/s GDDR6).  The host overhead is
#: the per-operator cost of the eager PyTorch dispatch path that drives the
#: GPU in the profiled reference implementations; it is deliberately large
#: relative to the kernel launch itself because those code bases issue many
#: tiny Python-level operations per logical module, which is precisely what
#: starves the GPU in the paper's measurements.
RTX_A6000 = DeviceSpec(
    name="rtx-a6000",
    kind="gpu",
    peak_gflops=31000.0,
    mem_bandwidth_gbps=700.0,
    launch_overhead_us=1.5,
    host_overhead_us=40.0,
    saturation_flops=2.0e8,
    memory_capacity_mb=48 * 1024,
    min_kernel_us=1.0,
)

#: PCIe 4.0 x16 link between the Xeon host and the A6000.  The bandwidth is
#: the *observed end-to-end copy throughput* for pageable host memory in the
#: profiled code bases (format conversion + staging + DMA), which is far below
#: the 16 GB/s wire rate and is what the paper's "Memory Copy" rows measure.
PCIE_GEN4 = LinkSpec(name="pcie-gen4-x16", bandwidth_gbps=2.0, latency_us=15.0)

#: Default warm-up parameters calibrated against the paper's Table 2 and
#: Sec. 4.4 (context init of several seconds; allocation warm-up of 5-10 ms
#: growing with batch footprint).
DEFAULT_WARMUP = WarmupSpec()

#: NVIDIA A100-SXM4-40GB.  Same derating philosophy as the A6000 preset: the
#: per-operator host overhead models the eager dispatch path of the profiled
#: reference implementations, so scale-out runs inherit exactly the
#: small-kernel inefficiencies the paper characterizes.
A100_SXM = DeviceSpec(
    name="a100-sxm",
    kind="gpu",
    peak_gflops=78000.0,
    mem_bandwidth_gbps=1400.0,
    launch_overhead_us=1.5,
    host_overhead_us=40.0,
    saturation_flops=4.0e8,
    memory_capacity_mb=40 * 1024,
    min_kernel_us=1.0,
)

#: NVLink 3.0 peer link (GPU<->GPU).  As with the PCIe preset, the bandwidth
#: is an *achieved end-to-end* figure for the framework copy path, not the
#: 300 GB/s aggregate wire rate -- but it stays an order of magnitude above
#: the host link, which is what makes peer-to-peer shard gathers cheap.
NVLINK3 = LinkSpec(name="nvlink3", bandwidth_gbps=40.0, latency_us=5.0, host_overhead_us=2.0)

#: 25 GbE NIC between two rack nodes.  Bandwidth is the achieved end-to-end
#: throughput of a framework-level TCP copy path (serialization + kernel
#: networking stack), well below the 3.1 GB/s wire rate; the latency is a
#: realistic same-rack RTT/2 plus stack traversal.  Cross-node transfers are
#: the slowest channel in a cluster by an order of magnitude, which is what
#: makes replica placement and cold-start weight shipping first-order costs.
ETHERNET_25G = LinkSpec(name="eth-25g", bandwidth_gbps=1.5, latency_us=60.0, host_overhead_us=4.0)

#: InfiniBand HDR NIC (RDMA path).  Much higher achieved bandwidth and far
#: lower latency than the Ethernet preset -- the kernel stack is bypassed --
#: but still below any intra-node channel, so node boundaries stay visible
#: in the cost model.
INFINIBAND_HDR = LinkSpec(
    name="ib-hdr", bandwidth_gbps=12.0, latency_us=8.0, host_overhead_us=2.0
)


# -- Host-work prices ----------------------------------------------------------
#
# What ``Machine.host_work`` charges for the CPU-side work the reference
# implementations do around their kernels, plus the traffic multiplier of
# irregular kernels.  Charge sites read ``spec.NAME`` when they charge (a
# sampler when it builds its per-``k`` table), so rebinding one reprices
# everything built afterwards.  Where each is charged: docs/ARCHITECTURE.md,
# "Priced constants".

#: Temporal neighbourhood sampling, per query row: a fixed cost, plus one
#: per earlier interaction of the row (the candidate list), one per sampled
#: neighbour, and one per ``log2(degree + 2)`` (the index sort).  Calibrated
#: so a two-layer TGAT query over a 200-interaction mini-batch costs tens of
#: milliseconds for small fan-outs and grows towards a second at fan-out 300,
#: the magnitudes of the paper's Fig. 7 breakdowns.
SAMPLING_US_PER_TARGET = 10.0
SAMPLING_US_PER_CANDIDATE = 0.01
SAMPLING_US_PER_SAMPLE = 0.03
SAMPLING_SORT_US_PER_LOG2_DEGREE = 1.0

#: Serving-cache table work, per key: a host-side open-addressing table in
#: front of a device-resident row pool (the row payloads are charged as
#: bandwidth-bound kernels on the store's device, not here).
CACHE_PROBE_US_PER_KEY = 0.08
CACHE_INSERT_US_PER_KEY = 0.12
CACHE_INVALIDATE_US_PER_KEY = 0.04

#: Multiplier on the byte traffic of gather/scatter kernels, for their poor
#: locality next to streaming access (the memory inefficiency of sampling
#: and embedding lookups).
IRREGULAR_ACCESS_FACTOR = 8.0

#: EvolveGCN: symmetric normalisation of one snapshot's adjacency on the CPU
#: before upload, per non-zero.
ADJ_NORMALIZATION_US_PER_NNZ = 0.02

#: EvolveGCN-H: ranking the node scores for the top-k summary, per score,
#: plus a fixed cost per selection.
TOPK_SELECTION_US_PER_SCORE = 0.002
TOPK_SELECTION_MS_PER_CALL = 0.01

#: ASTGNN: slicing and normalising one window of the traffic signal on the
#: host, per value.
DATA_LOADING_US_PER_VALUE = 0.002

#: MolDGNN: converting one molecular-graph frame from its host
#: representation into a device-ready tensor (the aten::to / copy_ work the
#: paper's profiles attribute to "Memory Copy").
MARSHALLING_MS_PER_FRAME = 0.02


# -- Machine-level presets ----------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """A whole-machine configuration: host, GPU complement, and interconnect.

    A :class:`~repro.hw.machine.Machine` built from a spec owns ``num_gpus``
    identical GPU devices, one host<->GPU link per GPU (PCIe), and --
    optionally -- an all-to-all mesh of GPU<->GPU peer links (NVLink).  When
    ``peer_link`` is ``None``, peer copies are staged through the two host
    links, which is how PCIe-only boxes move data between GPUs.

    Attributes:
        name: Preset name (``"1xA100"``, ``"4xA100-nvlink"``, ...).
        cpu / gpu: Device specs; ``gpu=None`` describes a CPU-only host.
        num_gpus: Number of identical GPUs (0 with ``gpu=None``).
        host_link: Host<->GPU link spec (one link instance per GPU).
        peer_link: Optional GPU<->GPU link spec (all-to-all when present).
        warmup: GPU warm-up parameters.
    """

    name: str
    cpu: DeviceSpec = XEON_6226R
    gpu: Optional[DeviceSpec] = RTX_A6000
    num_gpus: int = 1
    host_link: LinkSpec = PCIE_GEN4
    peer_link: Optional[LinkSpec] = None
    warmup: WarmupSpec = DEFAULT_WARMUP

    def __post_init__(self) -> None:
        least = 2 if self.peer_link is not None else 0 if self.gpu is None else 1
        most = 0 if self.gpu is None else float("inf")
        Domain(least, most, integer=True).check("num_gpus", self.num_gpus)


#: The paper's experimental platform: one Xeon 6226R host + one RTX A6000.
#: Machines built from this spec are byte-identical to ``Machine.cpu_gpu()``.
PAPER_1X_A6000 = MachineSpec(name="1xA6000")

#: Machine-spec registry for the CLI / experiments.  The A100 presets are the
#: scale-out platforms the ``scaling`` experiment sweeps.
MACHINE_SPECS: Dict[str, MachineSpec] = {
    spec.name: spec
    for spec in (
        PAPER_1X_A6000,
        MachineSpec(name="cpu-only", gpu=None, num_gpus=0),
        MachineSpec(name="1xA100", gpu=A100_SXM),
        MachineSpec(name="2xA100-pcie", gpu=A100_SXM, num_gpus=2),
        MachineSpec(name="2xA100-nvlink", gpu=A100_SXM, num_gpus=2, peer_link=NVLINK3),
        MachineSpec(name="4xA100-pcie", gpu=A100_SXM, num_gpus=4),
        MachineSpec(name="4xA100-nvlink", gpu=A100_SXM, num_gpus=4, peer_link=NVLINK3),
    )
}


def available_machine_specs() -> List[str]:
    return sorted(MACHINE_SPECS)


def machine_spec(spec: Union[str, MachineSpec]) -> MachineSpec:
    """Resolve a machine spec by preset name (passes specs through)."""
    if isinstance(spec, MachineSpec):
        return spec
    if spec not in MACHINE_SPECS:
        raise KeyError(
            f"unknown machine spec {spec!r}; available: "
            f"{', '.join(available_machine_specs())}"
        )
    return MACHINE_SPECS[spec]


# -- Cluster-level presets ----------------------------------------------------


@dataclass(frozen=True)
class ClusterSpec:
    """A rack of identical nodes joined by NIC links.

    Every node is a full :class:`MachineSpec` machine (its own host clock,
    GPUs, PCIe/NVLink complement); node pairs are connected all-to-all by
    one NIC link each (Ethernet or InfiniBand presets).  Cross-node data
    takes the GPU -> host -> NIC -> host -> GPU staged route, every hop
    charged on the cost-model timeline (see :class:`repro.hw.cluster.Cluster`).

    Attributes:
        name: Preset name (``"2n-2xA100-eth"``, ...).
        node: Per-node machine spec (all nodes are identical).
        num_nodes: Number of nodes in the cluster (>= 1).
        nic: NIC link spec joining every node pair.
    """

    name: str
    node: MachineSpec
    num_nodes: int = 2
    nic: LinkSpec = ETHERNET_25G

    def __post_init__(self) -> None:
        POSITIVE_INT.check("num_nodes", self.num_nodes)

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.node.num_gpus


#: Cluster-spec registry for the CLI / experiments.  Sizes are chosen so the
#: ``autoscaling`` experiment can sweep static fleets of 1..4 GPUs against an
#: elastic fleet on the same hardware.
CLUSTER_SPECS: Dict[str, ClusterSpec] = {
    spec.name: spec
    for spec in (
        ClusterSpec(name="1n-2xA100", node=MACHINE_SPECS["2xA100-pcie"], num_nodes=1),
        ClusterSpec(name="2n-1xA100-eth", node=MACHINE_SPECS["1xA100"], num_nodes=2),
        ClusterSpec(
            name="2n-1xA100-ib", node=MACHINE_SPECS["1xA100"], num_nodes=2, nic=INFINIBAND_HDR
        ),
        ClusterSpec(name="2n-2xA100-eth", node=MACHINE_SPECS["2xA100-pcie"], num_nodes=2),
        ClusterSpec(
            name="2n-2xA100-ib",
            node=MACHINE_SPECS["2xA100-pcie"],
            num_nodes=2,
            nic=INFINIBAND_HDR,
        ),
        ClusterSpec(name="4n-1xA100-eth", node=MACHINE_SPECS["1xA100"], num_nodes=4),
    )
}


def available_cluster_specs() -> List[str]:
    return sorted(CLUSTER_SPECS)


def cluster_spec(spec: Union[str, ClusterSpec]) -> ClusterSpec:
    """Resolve a cluster spec by preset name (passes specs through)."""
    if isinstance(spec, ClusterSpec):
        return spec
    if spec not in CLUSTER_SPECS:
        raise KeyError(
            f"unknown cluster spec {spec!r}; available: "
            f"{', '.join(available_cluster_specs())}"
        )
    return CLUSTER_SPECS[spec]
