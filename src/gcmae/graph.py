"""Sparse graph core: CSR adjacency, GCN normalization, SBM generation, dataset IO.

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TRAIN, VAL, TEST = 0, 1, 2


class DataError(ValueError):
    """Malformed dataset file or inconsistent graph data."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def csr_offsets(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR row offsets from the row index of every stored entry."""
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=offsets[1:])
    return offsets


def _degree_buckets(offsets: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> tuple:
    lengths = np.diff(offsets)
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    starts = np.flatnonzero(np.diff(sorted_lengths, prepend=-1))
    buckets = []
    for start, end in zip(starts, np.append(starts[1:], order.size)):
        k = sorted_lengths[start]
        if k:
            rows = order[start:end]
            entries = offsets[rows][:, None] + np.arange(k)
            buckets.append((rows, cols[entries], weights[entries]))
    return tuple(buckets)


def _ell_layouts(offsets: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                 symmetric: bool) -> tuple[tuple, tuple]:
    """Degree-bucketed ELL layouts (Bell & Garland 2009) of a CSR matrix and of
    its transpose, which is the same for a symmetric matrix. A bucket holds the
    rows with k > 0 entries: their ids, and r x k column ids and weights in CSR
    order."""
    forward = _degree_buckets(offsets, cols, weights)
    if symmetric:
        return forward, forward
    n = offsets.shape[0] - 1
    rows = np.repeat(np.arange(n), np.diff(offsets))
    order = np.argsort(cols, kind="stable")  # transpose; source rows stay ascending
    return forward, _degree_buckets(csr_offsets(cols, n), rows[order], weights[order])


@dataclass(frozen=True)
class SparseGraph:
    """Canonical CSR adjacency: sorted, deduplicated, no self-loops.

    For undirected graphs both directed arcs (i,j) and (j,i) are stored.
    """

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    is_undirected: bool = True

    def __post_init__(self):
        _frozen(self.row_offsets)
        _frozen(self.col_indices)

    @classmethod
    def from_edges(cls, num_nodes: int, edges, is_undirected: bool = True) -> "SparseGraph":
        """Build from an iterable of (u, v) pairs.

        Self-loops are dropped, duplicates merged; undirected input is
        symmetrized.
        """
        arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
            raise DataError(f"edge endpoint out of range [0, {num_nodes})")
        arr = arr[arr[:, 0] != arr[:, 1]]  # no self-loops stored
        if is_undirected and arr.size:
            arr = np.concatenate([arr, arr[:, ::-1]], axis=0)
        if arr.size:
            flat = np.unique(arr[:, 0] * num_nodes + arr[:, 1])
            rows, cols = flat // num_nodes, flat % num_nodes
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
        return cls(num_nodes, csr_offsets(rows, num_nodes), cols.astype(np.int64), is_undirected)

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (2x edge count for undirected)."""
        return int(self.col_indices.shape[0])

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def neighbors(self, node: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[node]:self.row_offsets[node + 1]]

    def arc_set(self) -> set[tuple[int, int]]:
        rows = np.repeat(np.arange(self.num_nodes), self.degrees())
        return set(zip(rows.tolist(), self.col_indices.tolist()))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float32)
        rows = np.repeat(np.arange(self.num_nodes), self.degrees())
        dense[rows, self.col_indices] = 1.0
        return dense

    @cached_property
    def spmm_layout(self) -> tuple[tuple, tuple]:
        """Unit-weight layouts for tensor.spmm, built on first use."""
        return _ell_layouts(self.row_offsets, self.col_indices, np.ones(self.num_arcs),
                            self.is_undirected)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """CSR form of D^{-1/2} (A + I) D^{-1/2} with D the self-loop-augmented degree."""

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    weights: np.ndarray
    is_symmetric: bool = True

    def __post_init__(self):
        _frozen(self.row_offsets)
        _frozen(self.col_indices)
        _frozen(self.weights)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float32)
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.row_offsets))
        dense[rows, self.col_indices] = self.weights
        return dense

    @cached_property
    def spmm_layout(self) -> tuple[tuple, tuple]:
        """Layouts for tensor.spmm, built on first use."""
        return _ell_layouts(self.row_offsets, self.col_indices,
                            self.weights.astype(np.float64), self.is_symmetric)


def normalize(graph: SparseGraph) -> NormalizedAdjacency:
    """Symmetric GCN normalization with self-loops injected transiently.

    weight(i, j) = 1 / sqrt((d_i + 1)(d_j + 1)); the diagonal gets 1 / (d_i + 1).
    An isolated node keeps only its self-loop with weight 1.
    """
    n = graph.num_nodes
    deg = graph.degrees()
    inv_sqrt = 1.0 / np.sqrt((deg + 1).astype(np.float64))
    rows = np.concatenate([np.repeat(np.arange(n), deg), np.arange(n)])
    cols = np.concatenate([graph.col_indices, np.arange(n)])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    weights = (inv_sqrt[rows] * inv_sqrt[cols]).astype(np.float32)
    return NormalizedAdjacency(n, csr_offsets(rows, n), cols, weights,
                               is_symmetric=graph.is_undirected)


@dataclass(frozen=True)
class Dataset:
    """A graph with node features, optional labels, and a train/val/test split."""

    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray | None = None
    split: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        n = self.graph.num_nodes
        if self.features.shape[0] != n:
            raise DataError("feature row count mismatch")
        if self.labels is not None and self.labels.shape[0] != n:
            raise DataError("label count mismatch")
        if self.split is None:
            object.__setattr__(self, "split", assign_split(n, self.labels))
        _frozen(self.features)
        _frozen(self.split)
        if self.labels is not None:
            _frozen(self.labels)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise DataError("dataset has no labels")
        return int(self.labels.max()) + 1

    def split_indices(self, tag: int) -> np.ndarray:
        return np.flatnonzero(self.split == tag)


def assign_split(
    num_nodes: int,
    labels: np.ndarray | None,
    fractions: tuple[float, float] = (0.1, 0.1),
    seed: int = 0,
) -> np.ndarray:
    """10/10/80 train/val/test split, stratified by label when labels exist."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B1D]))
    split = np.full(num_nodes, TEST, dtype=np.int8)
    groups = (
        [np.flatnonzero(labels == c) for c in np.unique(labels)]
        if labels is not None
        else [np.arange(num_nodes)]
    )
    for idx in groups:
        idx = idx[rng.permutation(idx.shape[0])]
        n_train = max(1, int(round(fractions[0] * idx.shape[0])))
        n_val = max(1, int(round(fractions[1] * idx.shape[0])))
        split[idx[:n_train]] = TRAIN
        split[idx[n_train:n_train + n_val]] = VAL
    return split


@dataclass(frozen=True)
class SbmSpec:
    """Planted-partition generator spec; features are noisy orthogonal block means."""

    blocks: int
    nodes_per_block: int
    p_in: float
    p_out: float
    feature_dim: int
    feature_separation: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise DataError("require 0 <= p_out <= p_in <= 1")
        if self.feature_dim < self.blocks:
            raise DataError("feature_dim must be >= number of blocks")
        if self.blocks < 1 or self.nodes_per_block < 1:
            raise DataError("blocks and nodes_per_block must be positive")


def generate_sbm(spec: SbmSpec) -> Dataset:
    """Sample an undirected SBM dataset, fully determined by spec.seed.

    Draw order is fixed (edges, features, split) so identical specs give
    bitwise-identical datasets.
    """
    n = spec.blocks * spec.nodes_per_block
    labels = np.repeat(np.arange(spec.blocks, dtype=np.int64), spec.nodes_per_block)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5B3A]))

    probs = np.where(labels[:, None] == labels[None, :], spec.p_in, spec.p_out)
    upper = np.triu(rng.random((n, n)) < probs, k=1)
    edges = np.argwhere(upper)
    graph = SparseGraph.from_edges(n, edges, is_undirected=True)

    means = np.zeros((spec.blocks, spec.feature_dim))
    means[np.arange(spec.blocks), np.arange(spec.blocks)] = spec.feature_separation
    feats = means[labels] + rng.normal(0.0, spec.noise_sigma, (n, spec.feature_dim))
    feats = feats.astype(np.float32)

    split = assign_split(n, labels, seed=spec.seed)
    return Dataset(graph, feats, labels, split)


def khop_sets(graph: SparseGraph, nodes, k: int) -> np.ndarray:
    """Row i marks the nodes at shortest-path distance exactly k from nodes[i].

    One frontier search for all sources: each level is a boolean sparse
    product (Kepner & Gilbert 2011) over the in-neighbour buckets of
    spmm_layout, so a directed graph is searched along its out-arcs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nodes = np.asarray(nodes, dtype=np.int64)
    frontier = np.zeros((nodes.size, graph.num_nodes), dtype=bool)
    frontier[np.arange(nodes.size), nodes] = True
    reached = frontier.copy()
    for _ in range(k):
        nxt = np.zeros_like(frontier)
        for rows, cols, _ in graph.spmm_layout[1]:
            nxt[:, rows] = frontier[:, cols].any(axis=2)
        nxt &= ~reached
        reached |= nxt
        frontier = nxt
    return frontier


def khop_neighbors(graph: SparseGraph, node: int, k: int) -> set[int]:
    """Nodes at shortest-path distance exactly k from node."""
    return set(np.flatnonzero(khop_sets(graph, [node], k)[0]).tolist())


def load_dataset(path: str, split_seed: int = 0) -> Dataset:
    """Parse the line-oriented text format; see save_dataset for the layout."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise DataError("unexpected end of file")
        ln = lines[pos]
        pos += 1
        return ln

    def parse(kind, token: str, what: str):
        try:
            return kind(token)
        except ValueError as exc:
            raise DataError(f"malformed {what}: {token!r}") from exc

    header = take().split()
    if len(header) != 3 or header[0] != "NODES":
        raise DataError("malformed header, expected 'NODES <N> <d>'")
    n, dim = parse(int, header[1], "header count"), parse(int, header[2], "header count")
    if n < 0 or dim < 0:
        raise DataError("negative header counts")

    feats = np.zeros((n, dim))  # float64 until range-checked
    for i in range(n):
        if pos >= len(lines) or lines[pos].startswith("EDGES"):
            raise DataError("feature row count mismatch")
        ln = take()
        head, _, rest = ln.partition(":")
        node_id = parse(int, head, "feature line node id")
        if node_id != i:
            raise DataError(f"node ids must appear in order, got {node_id} expected {i}")
        vals = rest.split()
        if len(vals) != dim:
            raise DataError(f"node {i}: expected {dim} feature values, got {len(vals)}")
        feats[i] = [parse(float, v, "feature value") for v in vals]
    in_range = np.abs(feats) <= np.finfo(np.float32).max  # False for nan and inf
    if not in_range.all():
        bad = np.flatnonzero(~in_range.all(axis=1))[0]
        raise DataError(f"node {bad}: feature value is nan, inf or beyond float32 range")
    feats = feats.astype(np.float32)

    edge_header = take().split()
    if len(edge_header) != 2 or edge_header[0] != "EDGES":
        raise DataError("malformed edge header, expected 'EDGES <m>'")
    m = parse(int, edge_header[1], "edge count")
    edges = []
    for _ in range(m):
        parts = take().split()
        if len(parts) != 2:
            raise DataError("malformed edge line")
        u, v = (parse(int, p, "edge endpoint") for p in parts)
        if not (0 <= u < n and 0 <= v < n):
            raise DataError(f"edge ({u}, {v}) out of range")
        edges.append((u, v))

    is_undirected = False
    if pos < len(lines) and lines[pos] == "UNDIRECTED":
        is_undirected = True
        pos += 1

    labels = None
    if pos < len(lines) and lines[pos] == "LABELS":
        pos += 1
        labels = np.zeros(n, dtype=np.int64)
        for i in range(n):
            parts = take().split()
            if len(parts) != 2:
                raise DataError("malformed label line")
            node_id, cls = (parse(int, p, "label line") for p in parts)
            if node_id != i:
                raise DataError(f"label ids must appear in order, got {node_id} expected {i}")
            if cls < 0:
                raise DataError("negative class index")
            labels[i] = cls
    if pos != len(lines):
        raise DataError(f"trailing content at line {pos + 1}")

    graph = SparseGraph.from_edges(n, edges, is_undirected=is_undirected)
    return Dataset(graph, feats, labels, assign_split(n, labels, seed=split_seed))


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write the text format: NODES header, feature rows, EDGES list,
    optional UNDIRECTED marker, optional LABELS section."""
    g = dataset.graph
    out = [f"NODES {g.num_nodes} {dataset.feature_dim}"]
    for i in range(g.num_nodes):
        vals = " ".join(repr(float(v)) for v in dataset.features[i])
        out.append(f"{i}: {vals}".rstrip())
    rows = np.repeat(np.arange(g.num_nodes), g.degrees())
    pairs = np.stack([rows, g.col_indices], axis=1)
    if g.is_undirected:
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    out.append(f"EDGES {pairs.shape[0]}")
    out.extend(f"{u} {v}" for u, v in pairs.tolist())
    if g.is_undirected:
        out.append("UNDIRECTED")
    if dataset.labels is not None:
        out.append("LABELS")
        out.extend(f"{i} {int(c)}" for i, c in enumerate(dataset.labels.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
