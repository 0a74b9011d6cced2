"""Static graph representation (CSR).

Snapshots of discrete-time dynamic graphs and the per-timestamp views of
continuous-time graphs are static graphs; this module provides the compressed
sparse row structure they share, with plain-numpy storage so graph
preprocessing stays on the (simulated) host like it does in the paper's
PyTorch pipelines.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


class CSRGraph:
    """An undirected (or directed) graph in compressed sparse row form.

    Attributes:
        indptr: (N + 1,) row pointers.
        indices: (E,) column indices.
        weights: (E,) edge weights (1.0 when unweighted).
        num_nodes: Number of nodes.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        num_nodes: Optional[int] = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.num_nodes = int(num_nodes) if num_nodes is not None else len(self.indptr) - 1
        if self.num_nodes != len(self.indptr) - 1:
            raise ValueError("num_nodes inconsistent with indptr")
        if weights is None:
            self.weights = np.ones(len(self.indices), dtype=np.float32)
        else:
            self.weights = np.asarray(weights, dtype=np.float32)
            if self.weights.shape != self.indices.shape:
                raise ValueError("weights must align with indices")
        if len(self.indices) and self.indices.max() >= self.num_nodes:
            raise ValueError("edge index out of range")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        src: Sequence[int],
        dst: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        symmetric: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list, optionally symmetrising it."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        w = (
            np.ones(len(src), dtype=np.float32)
            if weights is None
            else np.asarray(weights, dtype=np.float32)
        )
        if symmetric:
            src, dst = (np.concatenate([src, dst]), np.concatenate([dst, src]))
            w = np.concatenate([w, w])
        order = np.argsort(src, kind="stable")
        src, dst, w = (src[order], dst[order], w[order])
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(indptr, dst, w, num_nodes=num_nodes)

    @classmethod
    def from_dense(cls, adjacency: np.ndarray) -> "CSRGraph":
        """Build from a dense adjacency matrix (non-zero entries become edges)."""
        adjacency = np.asarray(adjacency)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        src, dst = np.nonzero(adjacency)
        weights = adjacency[src, dst].astype(np.float32)
        return cls.from_edges(adjacency.shape[0], src, dst, weights=weights, symmetric=False)

    # -- queries -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(len(self.indices))

    def degree(self, node: Optional[int] = None) -> np.ndarray | int:
        """Out-degree of one node, or the full degree array."""
        degrees = np.diff(self.indptr)
        if node is None:
            return degrees
        return int(degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        return self.weights[self.indptr[node] : self.indptr[node + 1]]

    def subgraph(self, nodes: Sequence[int]) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``nodes``; returns (subgraph, node mapping).

        The mapping array gives, for each subgraph node index, the original
        node id.
        """
        nodes = np.asarray(sorted(set(int(n) for n in nodes)), dtype=np.int64)
        remap = {int(orig): new for new, orig in enumerate(nodes)}
        src_list, dst_list, w_list = ([], [], [])
        for new_src, orig in enumerate(nodes):
            for col, weight in zip(self.neighbors(int(orig)), self.neighbor_weights(int(orig))):
                if int(col) in remap:
                    src_list.append(new_src)
                    dst_list.append(remap[int(col)])
                    w_list.append(weight)
        sub = CSRGraph.from_edges(len(nodes), src_list, dst_list, weights=w_list, symmetric=False)
        return (sub, nodes)

    def nbytes(self) -> int:
        """Host memory footprint of the CSR arrays."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes)
