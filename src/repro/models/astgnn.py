"""ASTGNN: Attention-based Spatial-Temporal Graph Neural Network for traffic
forecasting (Guo et al., 2021).

ASTGNN is an encoder-decoder model over a road-sensor graph: every layer
alternates temporal self-attention (over the time axis, per sensor) with a
spatial dynamic GCN (over the sensor graph, per time step).  The encoder maps
an input window of traffic signals to an intermediate representation and the
decoder generates the forecast window.

The paper's profiling (Figs. 7(c), 8(e), 9) finds that temporal attention
costs more than three times the spatial GCN, that small batches leave the GPU
idle between the encoder and decoder phases, and that large batches congest
PCIe and stretch the decoder.

Region labels match Fig. 7(c): ``Etc(data loading, cuda sync)``,
``Position Encoding``, ``Temporal Attention``, ``Spatial-attention GCN``
(transfers appear as ``Memory Copy`` and the final sync as
``Cuda Synchronization``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..datasets.base import TrafficDataset
from ..domain import Domain
from ..hw import spec
from ..hw.machine import Machine
from ..nn import (
    Linear,
    ModuleList,
    MultiHeadAttention,
    PositionalEncoding,
    normalized_adjacency,
)
from ..nn import init as nn_init
from ..tensor import Tensor, ops
from .base import DGNNModel, DISCRETE, ModelCard


@dataclass(frozen=True)
class ASTGNNBatch:
    """One inference batch: input windows and their prediction targets.

    Attributes:
        inputs: (batch, input_window, sensors, channels) traffic history.
        target_window: Number of future steps the decoder generates.
    """

    inputs: np.ndarray
    target_window: int

    @property
    def batch_size(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def input_window(self) -> int:
        return int(self.inputs.shape[1])

    @property
    def num_sensors(self) -> int:
        return int(self.inputs.shape[2])

    def nbytes(self) -> int:
        return int(self.inputs.nbytes)


@dataclass(frozen=True)
class ASTGNNConfig:
    """ASTGNN hyper-parameters.

    Attributes:
        model_dim: Width of the attention/GCN representations.
        num_heads: Attention heads.
        encoder_layers / decoder_layers: Stacked blocks in each phase.
        input_window / predict_window: History length and forecast horizon
            (12 five-minute steps each, as in the PeMS benchmarks).
        batch_size: Subgraph windows per batch -- the swept parameter of
            Figs. 7(c), 8(e) and 9.
    """

    model_dim: int = 64
    num_heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    input_window: int = 12
    predict_window: int = 12
    batch_size: int = 8
    seed: int = 5


class ASTGNN(DGNNModel):
    """Encoder-decoder spatial-temporal attention network."""

    name = "astgnn"

    def __init__(
        self,
        machine: Machine,
        dataset: TrafficDataset,
        config: ASTGNNConfig = ASTGNNConfig(),
    ) -> None:
        super().__init__(machine)
        self.config = config
        self.dataset = dataset
        rng = nn_init.make_rng(config.seed)
        device = self.compute_device
        dim = config.model_dim
        self.input_proj = Linear(dataset.num_channels, dim, device, rng)
        self.positional = PositionalEncoding(
            dim, max_len=config.input_window + config.predict_window, device=device
        )
        self.encoder_temporal = ModuleList(
            [
                MultiHeadAttention(dim, config.num_heads, device, rng)
                for _ in range(config.encoder_layers)
            ]
        )
        self.encoder_spatial = ModuleList(
            [Linear(dim, dim, device, rng) for _ in range(config.encoder_layers)]
        )
        self.decoder_temporal = ModuleList(
            [
                MultiHeadAttention(dim, config.num_heads, device, rng)
                for _ in range(2 * config.decoder_layers)
            ]
        )
        self.decoder_spatial = ModuleList(
            [Linear(dim, dim, device, rng) for _ in range(config.decoder_layers)]
        )
        self.output_proj = Linear(dim, dataset.num_channels, device, rng)
        self._normalized_adjacency = normalized_adjacency(dataset.adjacency)

    # -- Table 1 ------------------------------------------------------------------------

    def describe(self) -> ModelCard:
        return ModelCard(
            name="ASTGNN",
            category=DISCRETE,
            evolving_node_features=True,
            evolving_edge_features=False,
            evolving_topology=False,
            evolving_weights=False,
            time_encoding="self-attention",
            tasks=("traffic flow prediction",),
        )

    # -- batching ----------------------------------------------------------------------------

    def iteration_batches(self) -> Iterator[ASTGNNBatch]:
        dataset = self.dataset
        batch_size = self.config.batch_size
        window = self.config.input_window
        horizon = self.config.predict_window
        step = 0
        Domain(window + horizon + 1, integer=True).check("traffic steps", dataset.num_steps)
        max_start = dataset.num_steps - window - horizon
        while True:
            windows = []
            for offset in range(batch_size):
                start = (step + offset * window) % max_start
                windows.append(dataset.window(start, window))
            step += batch_size * window
            yield ASTGNNBatch(inputs=np.stack(windows).astype(np.float32), target_window=horizon)
            if step >= max_start:
                return

    def batch_footprint_bytes(self, batch: ASTGNNBatch) -> int:
        dim = self.config.model_dim
        working = batch.batch_size * batch.input_window * batch.num_sensors * dim * 4 * 3
        return int(batch.nbytes() + working + self.param_bytes())

    # -- inference --------------------------------------------------------------------------------

    def _forward(self, batch: ASTGNNBatch) -> Tensor:
        """Forecast ``predict_window`` steps for every window in the batch."""
        device = self.compute_device
        host = self.host_device
        b, t, n, _ = batch.inputs.shape

        # Data loading / normalisation on the host.
        with self.machine.region("Etc(data loading, cuda sync)"):
            self.machine.host_work(
                "traffic_window_loading", batch.inputs.size * spec.DATA_LOADING_US_PER_VALUE * 1e-3
            )
            inputs = Tensor(batch.inputs, host).to(device, name="traffic_window")
            adjacency = Tensor(self._normalized_adjacency, host).to(device, name="sensor_adjacency")

        with self.machine.region("Position Encoding"):
            projected = self.input_proj(inputs)                      # (B, T, N, D)
            per_sensor = ops.transpose(projected, (0, 2, 1, 3))      # (B, N, T, D)
            flat = ops.reshape(per_sensor, (b * n, t, self.config.model_dim))
            encoded = self.positional(flat)

        # ---- Encoder ----
        hidden = encoded
        for layer_index in range(self.config.encoder_layers):
            hidden = self._temporal_block(self.encoder_temporal[layer_index], hidden)
            hidden = self._spatial_block(
                self.encoder_spatial[layer_index], hidden, adjacency, b, t, n
            )
        encoder_output = hidden

        # ---- Decoder ----
        decoded = encoder_output
        for layer_index in range(self.config.decoder_layers):
            decoded = self._temporal_block(self.decoder_temporal[2 * layer_index], decoded)
            decoded = self._temporal_block(self.decoder_temporal[2 * layer_index + 1], decoded)
            decoded = self._spatial_block(
                self.decoder_spatial[layer_index], decoded, adjacency, b, t, n
            )

        with self.machine.region("Etc(data loading, cuda sync)"):
            per_sensor = ops.reshape(decoded, (b, n, t, self.config.model_dim))
            ordered = ops.transpose(per_sensor, (0, 2, 1, 3))
            forecast = self.output_proj(ordered)
            forecast_host = forecast.to(host, name="traffic_forecast")
        return forecast_host

    # -- blocks ------------------------------------------------------------------------------------

    def _temporal_block(self, attention: MultiHeadAttention, hidden: Tensor) -> Tensor:
        """Self-attention over the time axis, per sensor."""
        with self.machine.region("Temporal Attention"):
            attended = attention(hidden)
            return ops.add(hidden, attended)

    def _spatial_block(
        self, transform: Linear, hidden: Tensor, adjacency: Tensor, b: int, t: int, n: int
    ) -> Tensor:
        """Graph convolution over the sensor graph, per time step."""
        with self.machine.region("Spatial-attention GCN"):
            dim = self.config.model_dim
            per_step = ops.reshape(hidden, (b, n, t, dim))
            per_step = ops.transpose(per_step, (0, 2, 1, 3))          # (B, T, N, D)
            flat = ops.reshape(per_step, (b * t, n, dim))
            aggregated = ops.matmul(ops.reshape(adjacency, (1, n, n)), flat, name="spatial_gcn")
            transformed = ops.relu(transform(aggregated))
            back = ops.reshape(transformed, (b, t, n, dim))
            back = ops.transpose(back, (0, 2, 1, 3))
            return ops.reshape(back, (b * n, t, dim))
