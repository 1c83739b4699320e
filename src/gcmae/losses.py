"""Objective components: scaled cosine error over masked nodes, symmetric
InfoNCE, block-sampled adjacency reconstruction (MSE + BCE + relative
distance), variance discrimination, and their weighted total.

All functions build tape ops so one backward pass covers the whole objective.
Numeric floors: probability clamp 1e-7, cosine denominator 1e-8 (inside
row_l2_normalize), relative-distance sums 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .graph import SparseGraph

_PROB_FLOOR = 1e-7
_RD_FLOOR = 1e-8


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class LossWeights:
    alpha: float   # contrastive
    lambda_: float  # structure reconstruction
    mu: float      # variance discrimination
    gamma: float   # cosine-error exponent, > 1
    tau: float     # temperature, > 0
    var_epsilon: float

    @classmethod
    def from_config(cls, cfg: TrainConfig) -> "LossWeights":
        return cls(cfg.alpha, cfg.lambda_, cfg.mu, cfg.gamma, cfg.tau, cfg.var_epsilon)


@dataclass
class LossBreakdown:
    sce: float = 0.0
    contrastive: float = 0.0
    mse: float = 0.0
    bce: float = 0.0
    dist: float = 0.0
    structure_total: float = 0.0
    variance: float = 0.0
    total: float = 0.0
    dist_skipped: bool = False


def sce_loss(x: T.Tensor, z: T.Tensor, masked_nodes, gamma: float) -> T.Tensor:
    """(1/|V~|) sum over masked nodes of (1 - cos(x_i, z_i))**gamma."""
    idx = np.asarray(masked_nodes, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise LossError("masked set is empty; p_mask=0 with the cosine error enabled")
    if x.shape != z.shape:
        raise T.ShapeError(f"sce_loss shapes differ: {x.shape} vs {z.shape}")
    xn = T.row_l2_normalize(T.gather_rows(x, idx))
    zn = T.row_l2_normalize(T.gather_rows(z, idx))
    ones_col = T.constant(np.ones((x.cols, 1), dtype=np.float32))
    cos = T.matmul(T.elementwise_mul(xn, zn), ones_col)
    one = T.constant(np.ones((idx.size, 1), dtype=np.float32))
    return T.mean_all(T.power(T.sub(one, cos), gamma))


def infonce_loss(u: T.Tensor, v: T.Tensor, tau: float) -> T.Tensor:
    """Symmetric InfoNCE over aligned positive rows.

    For the anchor u_i the denominator holds intra-view negatives (j != i) and
    every inter-view pair including the positive; log-sum-exp is stabilized by
    subtracting a detached per-row maximum. Runs as one fused op: the whole
    computation is 64-bit, with an analytic adjoint.
    """
    if u.shape != v.shape:
        raise T.ShapeError(f"infonce_loss shapes differ: {u.shape} vs {v.shape}")
    n = u.rows
    if n < 2:
        raise LossError("infonce_loss needs at least 2 rows")
    un, u_norms, u_denom = T.unit_rows(u.values.astype(np.float64))
    vn, v_norms, v_denom = T.unit_rows(v.values.astype(np.float64))

    def direction(a, b):
        """Loss sum plus softmax weights: grad pieces P (intra) and Q (inter)."""
        masked = (a @ a.T) / tau
        inter = (a @ b.T) / tau
        # mask the diagonal before exponentiating: with the row max subtracted
        # every retained exponent is <= 0, so no temperature can overflow
        np.fill_diagonal(masked, -np.inf)
        c = np.maximum(masked.max(axis=1), inter.max(axis=1))
        e_intra = np.exp(masked - c[:, None])
        e_inter = np.exp(inter - c[:, None])
        den = e_intra.sum(axis=1) + e_inter.sum(axis=1)
        losses = np.log(den) + c - np.diag(inter)
        p_intra = e_intra / den[:, None]
        q_inter = e_inter / den[:, None]
        q_inter.flat[::n + 1] -= 1.0  # the positive's -1 on the diagonal
        return losses.sum(), p_intra, q_inter

    loss_uv, p_uu, q_uv = direction(un, vn)
    loss_vu, p_vv, q_vu = direction(vn, un)
    value = (loss_uv + loss_vu) / (2 * n)

    def bwd(g):
        s = g[0, 0] / (2 * n * tau)
        gn_u = s * ((p_uu + p_uu.T) @ un + q_uv @ vn + q_vu.T @ vn)
        gn_v = s * ((p_vv + p_vv.T) @ vn + q_vu @ un + q_uv.T @ un)
        return (T.unit_rows_backward(gn_u, un, u_norms, u_denom),
                T.unit_rows_backward(gn_v, vn, v_norms, v_denom))

    return T.custom_op("infonce", [[value]], (u, v), bwd)


def _block_adjacency(graph: SparseGraph, block: np.ndarray) -> np.ndarray:
    pos = np.full(graph.num_nodes, -1, dtype=np.int64)
    pos[block] = np.arange(block.size)
    rows = np.repeat(np.arange(graph.num_nodes), graph.degrees())
    cols = graph.col_indices
    keep = (pos[rows] >= 0) & (pos[cols] >= 0)
    sub = np.zeros((block.size, block.size), dtype=np.float32)
    sub[pos[rows[keep]], pos[cols[keep]]] = 1.0
    return sub


@dataclass
class AdjReconLosses:
    mse: T.Tensor
    bce: T.Tensor
    dist: T.Tensor | None     # None when the block holds no edge
    dist_skipped: bool


def adj_recon_losses(z: T.Tensor, graph: SparseGraph, block) -> AdjReconLosses:
    """Edge-probability reconstruction on a sampled B x B block.

    Logits are Z_B Z_B^T, predictions their sigmoid; the diagonal is excluded
    from all three sums. The relative-distance term contrasts the summed
    similarity kernel exp(-||z_i - z_j||^2) of connected vs disconnected pairs.
    Fused ops sharing one 64-bit forward pass, analytic adjoints.
    """
    block = np.asarray(block, dtype=np.int64).reshape(-1)
    b = block.size
    if b < 2:
        raise LossError("block size must be >= 2")
    if b > graph.num_nodes:
        raise LossError("block larger than the graph")
    if np.unique(block).size != b:
        raise LossError("block indices must be distinct")
    zb = z.values[block].astype(np.float64)
    gram = zb @ zb.T
    sig = T.stable_sigmoid(gram)
    a_sub = _block_adjacency(graph, block).astype(np.float64)
    offdiag = 1.0 - np.eye(b)
    inv_b2 = 1.0 / float(b * b)
    n_rows = z.rows

    def scatter(gzb):
        gz = np.zeros((n_rows, z.cols), dtype=np.float64)
        gz[block] = gzb
        return gz

    def quadratic_backward(w):
        # adjoint of f = sum_ij w_ij * gram_ij, gram = zb zb^T
        return (w + w.T) @ zb

    mse_val = inv_b2 * float((offdiag * (sig - a_sub) ** 2).sum())

    def mse_bwd(g):
        w = g[0, 0] * inv_b2 * 2.0 * offdiag * (sig - a_sub) * sig * (1.0 - sig)
        return (scatter(quadratic_backward(w)),)

    mse = T.custom_op("adj_mse", [[mse_val]], (z,), mse_bwd)

    clamped = np.clip(sig, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    in_range = (sig >= _PROB_FLOOR) & (sig <= 1.0 - _PROB_FLOOR)
    bce_val = -inv_b2 * float((offdiag * (a_sub * np.log(clamped)
                               + (1.0 - a_sub) * np.log(1.0 - clamped))).sum())

    def bce_bwd(g):
        dp = -inv_b2 * offdiag * (a_sub / clamped - (1.0 - a_sub) / (1.0 - clamped))
        w = g[0, 0] * dp * in_range * sig * (1.0 - sig)
        return (scatter(quadratic_backward(w)),)

    bce = T.custom_op("adj_bce", [[bce_val]], (z,), bce_bwd)

    if a_sub.sum() == 0:
        return AdjReconLosses(mse, bce, None, dist_skipped=True)

    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    kernel = np.exp(-d2) * offdiag
    adj_sum = float((kernel * a_sub).sum())
    nonadj_mask = offdiag - a_sub
    nonadj_sum = float((kernel * nonadj_mask).sum())
    dist_val = np.log(max(nonadj_sum, _RD_FLOOR)) - np.log(max(adj_sum, _RD_FLOOR))

    def dist_bwd(g):
        dk = np.zeros((b, b))
        if nonadj_sum > _RD_FLOOR:
            dk += nonadj_mask / nonadj_sum
        if adj_sum > _RD_FLOOR:
            dk -= a_sub / adj_sum
        w = g[0, 0] * dk * (-kernel)  # d kernel / d d2 = -kernel
        # d2_ij = ||z_i - z_j||^2 summed over ordered pairs; w symmetric
        row = w.sum(axis=1)
        gzb = 4.0 * (row[:, None] * zb - w @ zb)
        return (scatter(gzb),)

    dist = T.custom_op("adj_dist", [[dist_val]], (z,), dist_bwd)
    return AdjReconLosses(mse, bce, dist, dist_skipped=False)


def variance_loss(h: T.Tensor, epsilon: float, literal: bool = False) -> T.Tensor:
    """Hinge on per-column standard deviation: mean(max(0, 1 - sqrt(var + eps))).

    literal=True evaluates the unhinged mean sqrt(var + eps) instead (the raw
    regularizer form, kept for comparison runs).
    """
    if h.rows < 2:
        raise LossError("variance_loss needs at least 2 rows")
    var = T.column_variance(h)
    eps = T.constant(np.full((1, h.cols), epsilon, dtype=np.float32))
    std = T.power(T.add(var, eps), 0.5)
    if literal:
        return T.mean_all(std)
    one = T.constant(np.ones((1, h.cols), dtype=np.float32))
    return T.mean_all(T.relu(T.sub(one, std)))


def total_loss(weights: LossWeights,
               sce: T.Tensor | None = None,
               contrastive: T.Tensor | None = None,
               mse: T.Tensor | None = None,
               bce: T.Tensor | None = None,
               dist: T.Tensor | None = None,
               variance: T.Tensor | None = None,
               dist_skipped: bool = False) -> tuple[T.Tensor, LossBreakdown]:
    """Weighted sum J = sce + alpha*contrastive + lambda*structure + mu*variance.

    Components that are None (disabled by mode or a zero weight) contribute
    nothing; at least one term must remain.
    """
    bd = LossBreakdown(dist_skipped=dist_skipped)
    structure = None
    if mse is not None:
        bd.mse = mse.item()
        bd.bce = bce.item()
        structure = T.add(mse, bce)
        if dist is not None:
            bd.dist = dist.item()
            structure = T.add(structure, dist)
        bd.structure_total = structure.item()

    terms = []
    if sce is not None:
        bd.sce = sce.item()
        terms.append(sce)
    if contrastive is not None and weights.alpha > 0:
        bd.contrastive = contrastive.item()
        terms.append(T.scale(contrastive, weights.alpha))
    if structure is not None and weights.lambda_ > 0:
        terms.append(T.scale(structure, weights.lambda_))
    if variance is not None and weights.mu > 0:
        bd.variance = variance.item()
        terms.append(T.scale(variance, weights.mu))
    if not terms:
        raise LossError("no loss components active")
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    bd.total = total.item()
    return total, bd
