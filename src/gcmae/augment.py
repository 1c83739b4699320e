"""View construction: Bernoulli feature masking and node dropping.

Row i of both views always refers to the same original node; dropping removes
incident edges only, indices and feature rows stay in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .graph import SparseGraph, csr_offsets
from .tensor import Tensor, masked_fill_rows

_MASK_STREAM, _DROP_STREAM = 0xA5E1, 0xD80F


@dataclass(frozen=True)
class MaskPlan:
    masked_nodes: np.ndarray  # sorted node indices, the set V~
    p_mask: float
    seed_tag: tuple[int, int]

    def __post_init__(self):
        self.masked_nodes.setflags(write=False)


@dataclass(frozen=True)
class DropPlan:
    dropped_nodes: np.ndarray
    p_drop: float
    seed_tag: tuple[int, int]

    def __post_init__(self):
        self.dropped_nodes.setflags(write=False)


def draw_plans(config: TrainConfig, epoch: int, num_nodes: int) -> tuple[MaskPlan, DropPlan]:
    """Fresh i.i.d. Bernoulli draws, a pure function of (config.seed, epoch)."""
    mask_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, epoch, _MASK_STREAM]))
    drop_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, epoch, _DROP_STREAM]))
    masked = np.flatnonzero(mask_rng.random(num_nodes) < config.p_mask)
    dropped = np.flatnonzero(drop_rng.random(num_nodes) < config.p_drop)
    tag = (config.seed, epoch)
    return (MaskPlan(masked, config.p_mask, tag),
            DropPlan(dropped, config.p_drop, tag))


def mask_features(x: Tensor, plan: MaskPlan) -> Tensor:
    """Zero the feature rows of V~; gradients flow only through visible rows."""
    return masked_fill_rows(x, plan.masked_nodes, 0.0)


def drop_nodes(graph: SparseGraph, plan: DropPlan) -> SparseGraph:
    """Remove every edge with an endpoint in the dropped set; same node count."""
    dropped = np.zeros(graph.num_nodes, dtype=bool)
    dropped[plan.dropped_nodes] = True
    rows = np.repeat(np.arange(graph.num_nodes), graph.degrees())
    cols = graph.col_indices
    keep = ~(dropped[rows] | dropped[cols])
    return SparseGraph(graph.num_nodes, csr_offsets(rows[keep], graph.num_nodes),
                       cols[keep].astype(np.int64), graph.is_undirected)
