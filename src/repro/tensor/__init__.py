"""Numpy-backed, device-placed tensor substrate.

This package replaces PyTorch for the purposes of this reproduction: tensors
carry a device, operators compute real values and charge simulated hardware
costs, and cross-device copies occupy the simulated PCIe link.
"""

from . import costs, meta, ops
from .tensor import DeviceMismatchError, Tensor, ensure_same_device

__all__ = [
    "DeviceMismatchError",
    "Tensor",
    "costs",
    "ensure_same_device",
    "meta",
    "ops",
]
