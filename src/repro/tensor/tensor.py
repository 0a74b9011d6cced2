"""Device-placed tensors backed by numpy.

A :class:`Tensor` couples a numpy array with a simulated
:class:`~repro.hw.device.Device`.  Operators (see :mod:`repro.tensor.ops`)
compute real values with numpy *and* charge the corresponding work to the
hardware simulator, so every model built on this substrate is simultaneously
functionally testable and profileable.

Moving a tensor between devices with :meth:`Tensor.to` issues a PCIe transfer
on the active :class:`~repro.hw.machine.Machine`, which is how the paper's
data-movement bottleneck enters the simulation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..hw.device import Device
from ..hw.machine import active_machine_or_none, current_machine, has_active_machine
from .costs import ITEMSIZE


class DeviceMismatchError(RuntimeError):
    """Raised when an operator receives tensors on different devices."""


ArrayLike = Union[np.ndarray, Sequence, float, int]

_FLOAT32 = np.dtype(np.float32)


class Tensor:
    """A numpy array bound to a simulated device.

    Args:
        data: Array data; floating point data is stored as float32, integer
            data (indices) keeps an integer dtype.
        device: The simulated device holding the data.
        name: Optional label used for memory-allocation tags.
        track_memory: Whether to register the tensor with the device's memory
            pool (explicitly created tensors and transferred copies are
            tracked; operator intermediates are not).
    """

    __slots__ = ("data", "device", "name", "_alloc_id")

    def __init__(
        self,
        data: ArrayLike,
        device: Device,
        name: str = "",
        track_memory: bool = False,
    ) -> None:
        # Fast path: operator intermediates arrive as float32 ndarrays and
        # skip the dtype inspection entirely (this constructor runs once per
        # simulated kernel).
        if isinstance(data, np.ndarray) and data.dtype == _FLOAT32:
            array = data
        else:
            array = np.asarray(data)
            kind = array.dtype.kind
            if kind == "f":
                if array.dtype != _FLOAT32:
                    array = array.astype(np.float32)
            elif kind not in ("i", "u", "b"):
                raise TypeError(f"unsupported dtype {array.dtype}")
        self.data = array
        self.device = device
        self.name = name
        self._alloc_id: Optional[int] = None
        if track_memory:
            machine = active_machine_or_none()
            if machine is not None:
                self._alloc_id = machine.alloc(device, self.nbytes, tag=name or "tensor")

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, shape: Sequence[int], device: Device, name: str = "") -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float32), device, name=name, track_memory=True)

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def numel(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Simulated footprint (float32 accounting regardless of stored dtype)."""
        return ITEMSIZE * int(self.data.size)

    @property
    def is_tracked(self) -> bool:
        return self._alloc_id is not None

    def numpy(self) -> np.ndarray:
        """The underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, device={self.device.name!r}, name={self.name!r})"

    # -- device movement ------------------------------------------------------

    def to(self, device: Device, name: str = "") -> "Tensor":
        """Copy the tensor to another device.

        When a machine is active the copy occupies the link and appears as a
        ``transfer`` event (the "Memory Copy" rows of the paper's
        breakdowns), and the destination copy is registered with the
        device's memory pool.  Moving to the same device returns ``self``.
        """
        if device == self.device:
            return self
        machine = active_machine_or_none()
        if machine is not None:
            machine.transfer(self.device, device, self.nbytes, name=name or "memcpy")
        return Tensor(self.data, device, name=name or self.name, track_memory=True)

    def free(self) -> None:
        """Release the tracked allocation, if any."""
        if self._alloc_id is not None and has_active_machine():
            current_machine().free(self.device, self._alloc_id)
        self._alloc_id = None

    # -- conveniences (delegating to ops) --------------------------------------

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from . import ops

        return ops.matmul(self, other)

    def __add__(self, other) -> "Tensor":
        from . import ops

        return ops.add(self, other)

    def __sub__(self, other) -> "Tensor":
        from . import ops

        return ops.sub(self, other)

    def __mul__(self, other) -> "Tensor":
        from . import ops

        return ops.mul(self, other)

    def __truediv__(self, other) -> "Tensor":
        from . import ops

        return ops.div(self, other)

    def __neg__(self) -> "Tensor":
        from . import ops

        return ops.mul(self, -1.0)

    def reshape(self, *shape: int) -> "Tensor":
        from . import ops

        return ops.reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        from . import ops

        return ops.transpose(self, axes)

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        from . import ops

        return ops.reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        from . import ops

        return ops.reduce_mean(self, axis=axis, keepdims=keepdims)


def ensure_same_device(*tensors: Tensor) -> Device:
    """Assert that all tensors live on one device and return it.

    DGNN implementations frequently mix host-resident graph data with
    device-resident embeddings; a hard error here surfaces missing transfers
    instead of silently computing across devices (which real PyTorch would
    also refuse to do).
    """
    if not tensors:
        raise ValueError("ensure_same_device requires at least one tensor")
    device = tensors[0].device
    for tensor in tensors[1:]:
        # Identity check first: tensors overwhelmingly share the one Device
        # object of the active machine, so the __eq__ call is rarely needed.
        if tensor.device is not device and tensor.device != device:
            raise DeviceMismatchError(
                f"tensors live on different devices: {device.name!r} vs "
                f"{tensor.device.name!r}; insert an explicit .to(...) transfer"
            )
    return device
