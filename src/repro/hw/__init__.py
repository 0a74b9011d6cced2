"""Hardware simulation substrate.

This package models the paper's experimental platform -- an Intel Xeon Gold
6226R host, an NVIDIA RTX A6000 GPU and the PCIe link between them -- as an
analytic simulator.  Tensor operators and graph preprocessing charge work to
the simulated devices; the profiler in :mod:`repro.core` reads the resulting
event log to produce the breakdowns, utilization curves and memory figures the
paper obtains from PyTorch Profiler and Nsight Systems.
"""

from .cluster import Cluster
from .device import Device
from .events import ALLOC, FREE, KERNEL, MARKER, SYNC, TRANSFER, WARMUP, Event, EventLog
from .link import Link
from .machine import Machine, current_machine, has_active_machine
from .memory import MemoryPool, OutOfMemoryError
from .spec import (
    CLUSTER_SPECS,
    ETHERNET_25G,
    INFINIBAND_HDR,
    MACHINE_SPECS,
    NVLINK3,
    ClusterSpec,
    DeviceSpec,
    LinkSpec,
    MachineSpec,
    available_cluster_specs,
    available_machine_specs,
    cluster_spec,
    machine_spec,
)
from .stream import COPY_STREAM, Stream, StreamEvent, StreamSet, union_busy_ms
from .timeline import Interval, Timeline
from .topology import Topology

__all__ = [
    "ALLOC",
    "CLUSTER_SPECS",
    "COPY_STREAM",
    "ETHERNET_25G",
    "FREE",
    "INFINIBAND_HDR",
    "KERNEL",
    "MACHINE_SPECS",
    "MARKER",
    "NVLINK3",
    "SYNC",
    "TRANSFER",
    "WARMUP",
    "Cluster",
    "ClusterSpec",
    "Device",
    "DeviceSpec",
    "Event",
    "EventLog",
    "Interval",
    "Link",
    "LinkSpec",
    "Machine",
    "MachineSpec",
    "MemoryPool",
    "OutOfMemoryError",
    "Stream",
    "StreamEvent",
    "StreamSet",
    "Timeline",
    "Topology",
    "available_cluster_specs",
    "available_machine_specs",
    "cluster_spec",
    "current_machine",
    "has_active_machine",
    "machine_spec",
    "union_busy_ms",
]
