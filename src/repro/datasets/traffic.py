"""Synthetic traffic dataset (PeMS stand-in) for ASTGNN.

The Caltrans Performance Measurement System (PeMS) datasets used by ASTGNN
are road-sensor graphs with a multi-channel traffic signal sampled every five
minutes.  The generator below builds a random geometric sensor graph (sensors
connected when they are close on a synthetic roadway plane) and a signal with
the structure traffic data actually has: a strong daily periodicity, morning
and evening rush-hour peaks, spatially correlated congestion and measurement
noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domain import POSITIVE_INT, Domain
from .base import TrafficDataset


@dataclass(frozen=True)
class TrafficConfig:
    """Parameters of the synthetic PeMS-like generator."""

    name: str = "pems"
    num_sensors: int = 170
    num_days: int = 3
    interval_minutes: int = 5
    num_channels: int = 3
    connection_radius: float = 0.15
    seed: int = 37

    def __post_init__(self) -> None:
        Domain(2, integer=True).check("num_sensors", self.num_sensors)
        POSITIVE_INT.check("num_days", self.num_days)
        Domain(0, 1, lo_open=True, hi_open=True).check("connection_radius", self.connection_radius)

    @property
    def steps_per_day(self) -> int:
        return 24 * 60 // self.interval_minutes

    @property
    def num_steps(self) -> int:
        return self.num_days * self.steps_per_day


def generate_traffic(config: TrafficConfig) -> TrafficDataset:
    """Generate a :class:`TrafficDataset` from ``config``."""
    rng = np.random.default_rng(config.seed)
    positions = rng.random((config.num_sensors, 2))
    distances = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    adjacency = (distances < config.connection_radius).astype(np.float32)
    np.fill_diagonal(adjacency, 0.0)
    # Guarantee every sensor has at least one neighbour (its nearest sensor).
    for sensor in range(config.num_sensors):
        if adjacency[sensor].sum() == 0:
            nearest = int(np.argsort(distances[sensor])[1])
            adjacency[sensor, nearest] = 1.0
            adjacency[nearest, sensor] = 1.0

    steps = config.num_steps
    minutes = (np.arange(steps) * config.interval_minutes) % (24 * 60)
    hours = minutes / 60.0
    # Two rush-hour peaks plus a broad daytime plateau.
    daily = (
        0.4
        + 0.5 * np.exp(-((hours - 8.0) ** 2) / 3.0)
        + 0.6 * np.exp(-((hours - 17.5) ** 2) / 4.0)
        + 0.2 * np.sin(np.pi * hours / 24.0)
    )
    sensor_scale = rng.uniform(0.6, 1.4, size=config.num_sensors)
    base_flow = daily[:, None] * sensor_scale[None, :] * 300.0

    # Spatially correlated congestion: neighbours see correlated slowdowns.
    noise = rng.standard_normal((steps, config.num_sensors))
    degree = adjacency.sum(axis=1, keepdims=True)
    smoothing = adjacency / np.maximum(degree, 1.0)
    correlated = noise @ smoothing.T * 0.5 + noise * 0.5

    flow = np.maximum(0.0, base_flow * (1.0 + 0.15 * correlated))
    occupancy = np.clip(flow / 600.0 + 0.05 * rng.standard_normal(flow.shape), 0.0, 1.0)
    speed = np.maximum(5.0, 70.0 - 40.0 * occupancy + 2.0 * rng.standard_normal(flow.shape))

    channels = [flow, occupancy, speed][: config.num_channels]
    signal = np.stack(channels, axis=-1).astype(np.float32)
    return TrafficDataset(
        name=config.name,
        adjacency=adjacency,
        signal=signal,
        interval_minutes=config.interval_minutes,
    )
