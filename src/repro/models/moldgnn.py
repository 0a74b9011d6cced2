"""MolDGNN: dynamic graph learning of molecular conformations
(Ashby & Bilbrey, 2021).

MolDGNN predicts the next adjacency matrix of a molecule from a short history
of molecular-graph snapshots.  Each frame is encoded with a GCN, the frame
embeddings are fed through an LSTM that captures the temporal dynamics, and a
feed-forward network decodes the predicted (symmetrised) adjacency matrix.

The paper's profiling (Figs. 5(c), 6(d), 7(b)) shows MolDGNN is dominated by
CPU<->GPU traffic: every molecule's adjacency matrices are shipped to the GPU
and every predicted matrix is shipped back for the atom-distance calculation,
so memory copy accounts for ~80-90% of GPU working time at every batch size
while GPU utilization stays under 1%.

Region labels match Fig. 7(b): ``GCN``, ``LSTM``, ``FFN`` (transfers appear as
``Memory Copy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from ..datasets.base import MolecularDataset
from ..hw import spec
from ..hw.machine import Machine
from ..nn import MLP, LSTMCell, Linear, normalized_adjacency
from ..nn import init as nn_init
from ..tensor import Tensor, ops
from .base import DGNNModel, DISCRETE, ModelCard


@dataclass(frozen=True)
class MolDGNNBatch:
    """One inference batch: a window of frames from several molecules.

    Attributes:
        adjacencies: (num_molecules, window, atoms, atoms) normalised
            adjacency matrices.
        features: (num_molecules, window, atoms, feature_dim) node features.
    """

    adjacencies: np.ndarray
    features: np.ndarray

    @property
    def num_molecules(self) -> int:
        return int(self.adjacencies.shape[0])

    @property
    def window(self) -> int:
        return int(self.adjacencies.shape[1])

    @property
    def num_atoms(self) -> int:
        return int(self.adjacencies.shape[2])

    def nbytes(self) -> int:
        return int(self.adjacencies.nbytes + self.features.nbytes)


@dataclass(frozen=True)
class MolDGNNConfig:
    """MolDGNN hyper-parameters.

    Attributes:
        hidden_dim: GCN output / LSTM width.
        window: Number of history frames fed to the LSTM.
        batch_size: Molecules per batch -- the swept parameter of Figs. 6(d)
            and 7(b) and Table 2 (molecule windows are drawn cyclically when
            the batch exceeds the dataset size, as the reference code does
            with its repeated trajectory sampler).
    """

    hidden_dim: int = 64
    window: int = 8
    batch_size: int = 32
    seed: int = 4


class MolDGNN(DGNNModel):
    """GCN + LSTM + FFN adjacency predictor for molecular trajectories."""

    name = "moldgnn"

    def __init__(
        self,
        machine: Machine,
        dataset: MolecularDataset,
        config: MolDGNNConfig = MolDGNNConfig(),
    ) -> None:
        super().__init__(machine)
        self.config = config
        self.dataset = dataset
        rng = nn_init.make_rng(config.seed)
        device = self.compute_device
        feature_dim = dataset.feature_dim
        num_atoms = dataset.trajectories[0].num_nodes
        self.num_atoms = num_atoms
        self.gcn_proj = Linear(feature_dim, config.hidden_dim, device, rng)
        self.gcn_out = Linear(config.hidden_dim, config.hidden_dim, device, rng)
        self.lstm_cell = LSTMCell(config.hidden_dim, config.hidden_dim, device, rng)
        self.decoder = MLP(
            (config.hidden_dim, config.hidden_dim, num_atoms * num_atoms), device, rng
        )

    # -- Table 1 -------------------------------------------------------------------

    def describe(self) -> ModelCard:
        return ModelCard(
            name="MolDGNN",
            category=DISCRETE,
            evolving_node_features=True,
            evolving_edge_features=False,
            evolving_topology=True,
            evolving_weights=False,
            time_encoding="RNN",
            tasks=("adjacency matrix prediction",),
        )

    # -- batching --------------------------------------------------------------------

    def iteration_batches(self) -> Iterator[MolDGNNBatch]:
        """Yield batches of molecule windows (cycling over trajectories)."""
        batch_size = self.config.batch_size
        window = self.config.window
        trajectories = self.dataset.trajectories
        cursor = 0
        while True:
            adjacencies, features = ([], [])
            for offset in range(batch_size):
                trajectory = trajectories[(cursor + offset) % len(trajectories)]
                start = (cursor + offset) % max(1, len(trajectory) - window)
                frames = [trajectory[start + i] for i in range(min(window, len(trajectory)))]
                adjacencies.append(np.stack([normalized_adjacency(f.adjacency) for f in frames]))
                features.append(np.stack([f.node_features for f in frames]))
            cursor += batch_size
            yield MolDGNNBatch(
                adjacencies=np.stack(adjacencies).astype(np.float32),
                features=np.stack(features).astype(np.float32),
            )
            if cursor >= len(trajectories) * max(1, len(trajectories[0]) - window):
                return

    def batch_footprint_bytes(self, batch: MolDGNNBatch) -> int:
        return int(batch.nbytes() * 2 + self.param_bytes())

    # -- inference -----------------------------------------------------------------------

    def _forward(self, batch: MolDGNNBatch) -> Tensor:
        """Predict the next adjacency matrix for every molecule in the batch."""
        device = self.compute_device
        host = self.host_device
        molecules, window, atoms = (batch.num_molecules, batch.window, batch.num_atoms)

        # Ship each molecule's window to the device.  The reference pipeline
        # converts every snapshot's adjacency from its host graph format into
        # a device tensor, so each molecule pays a fixed marshalling cost on
        # the CPU in addition to the PCIe copy -- the large *number* of small
        # copies, not their volume, is the defining MolDGNN bottleneck
        # (Fig. 5(c), Fig. 7(b)).
        adjacency_parts: List[Tensor] = []
        feature_parts: List[Tensor] = []
        with self.machine.region("Memory Copy"):
            for index in range(molecules):
                self.machine.host_work(
                    "adjacency_marshalling", spec.MARSHALLING_MS_PER_FRAME * window
                )
                adjacency_parts.append(
                    Tensor(batch.adjacencies[index], host).to(device, name="molecule_adjacency")
                )
                feature_parts.append(
                    Tensor(batch.features[index], host).to(device, name="molecule_features")
                )

        with self.machine.region("GCN"):
            adjacency = ops.stack(adjacency_parts, axis=0)
            features = ops.stack(feature_parts, axis=0)
            projected = self.gcn_proj(features)
            aggregated = ops.matmul(adjacency, projected, name="mol_spmm")
            hidden = ops.relu(self.gcn_out(aggregated))
            # Mean-pool atoms: one embedding per frame, (molecules, window, D).
            frame_embeddings = ops.reduce_mean(hidden, axis=2)

        with self.machine.region("LSTM"):
            h = Tensor(np.zeros((molecules, self.config.hidden_dim), dtype=np.float32), device)
            c = Tensor(np.zeros((molecules, self.config.hidden_dim), dtype=np.float32), device)
            for step in range(window):
                frame = Tensor(frame_embeddings.data[:, step, :], device)
                h, c = self.lstm_cell(frame, (h, c))

        with self.machine.region("FFN"):
            decoded = self.decoder(h)
            logits = ops.reshape(decoded, (molecules, atoms, atoms))
            # Symmetrise the prediction as the reference implementation does.
            symmetric = ops.mul(ops.add(logits, ops.transpose(logits, (0, 2, 1))), 0.5)
            predictions = ops.sigmoid(symmetric)

        # Return every predicted adjacency matrix to the host for the
        # downstream atom-to-atom distance calculation: another per-molecule
        # transfer storm.
        outputs: List[Tensor] = []
        with self.machine.region("Memory Copy"):
            for index in range(molecules):
                predicted = Tensor(predictions.data[index], device)
                outputs.append(predicted.to(host, name="predicted_adjacency"))
                self.machine.host_work("prediction_marshalling", spec.MARSHALLING_MS_PER_FRAME)
        return predictions
