"""The training loop: draw views, forward, total loss, backward, Adam step.

Bitwise deterministic in (dataset, config): all randomness flows through
SeedSequence streams keyed by (seed, epoch), and every reduction has a fixed
order. Full-batch training; only the adjacency-reconstruction term is
block-sampled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .augment import draw_plans, drop_nodes, mask_features
from .config import TrainConfig, config_hash
from .graph import Dataset, khop_sets, normalize
from .losses import (LossBreakdown, LossWeights, adj_recon_losses, infonce_loss,
                     sce_loss, total_loss, variance_loss)
from .model import (ModelParams, embed, forward, init_params, load_checkpoint,
                    save_checkpoint)

__all__ = [
    "NumericError", "TraceEntry", "TrainTrace", "adam_step", "train",
    "similarity_probe", "save_checkpoint", "load_checkpoint",
]

_BLOCK_STREAM, _PROBE_STREAM = 0xB10C, 0x960B
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NumericError(RuntimeError):
    pass


class ProbeError(RuntimeError):
    pass


@dataclass
class TraceEntry:
    epoch: int
    breakdown: LossBreakdown
    probe: float | None = None
    seconds: float = 0.0


@dataclass
class TrainTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def serialize(self, include_timing: bool = False) -> str:
        """One tab-separated line per epoch: epoch, sce, contrastive, mse, bce,
        dist, variance, total, probe (or -), seconds.

        Wall time is nondeterministic, so the seconds column is written as "-"
        unless timing is explicitly requested; the default form is a pure
        function of (dataset, config).
        """
        lines = []
        for e in self.entries:
            b = e.breakdown
            probe = repr(e.probe) if e.probe is not None else "-"
            secs = f"{e.seconds:.3f}" if include_timing else "-"
            lines.append("\t".join([
                str(e.epoch), repr(b.sce), repr(b.contrastive), repr(b.mse),
                repr(b.bce), repr(b.dist), repr(b.variance), repr(b.total),
                probe, secs,
            ]))
        return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> TrainTrace:
    trace = TrainTrace()
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 10:
            raise ValueError(f"bad trace line: {line!r}")
        b = LossBreakdown(
            sce=float(parts[1]), contrastive=float(parts[2]), mse=float(parts[3]),
            bce=float(parts[4]), dist=float(parts[5]), variance=float(parts[6]),
            total=float(parts[7]))
        b.structure_total = b.mse + b.bce + b.dist
        probe = None if parts[8] == "-" else float(parts[8])
        secs = 0.0 if parts[9] == "-" else float(parts[9])
        trace.entries.append(TraceEntry(int(parts[0]), b, probe, secs))
    return trace


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              lr: float, weight_decay: float, t: int) -> None:
    """Bias-corrected Adam with decoupled decay applied before the update."""
    if t < 1:
        raise ValueError("step count t starts at 1")
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, w in params.weights.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(w.shape, dtype=np.float32)
        if g.shape != w.values.shape:
            raise T.ShapeError(f"gradient shape {g.shape} != weight shape {w.values.shape} for {name}")
        g64 = g.astype(np.float64)
        m = (ADAM_BETA1 * params.adam_m[name].astype(np.float64) + (1 - ADAM_BETA1) * g64)
        v = (ADAM_BETA2 * params.adam_v[name].astype(np.float64) + (1 - ADAM_BETA2) * g64 * g64)
        params.adam_m[name] = m.astype(np.float32)
        params.adam_v[name] = v.astype(np.float32)
        m_hat = params.adam_m[name].astype(np.float64) / bc1
        v_hat = params.adam_v[name].astype(np.float64) / bc2
        w64 = w.values.astype(np.float64) * (1.0 - lr * weight_decay)
        w64 -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        w.values = w64.astype(np.float32)
    params.step = t


def _sample_block(config: TrainConfig, epoch: int, num_nodes: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, epoch, _BLOCK_STREAM]))
    size = min(num_nodes, config.block_size)
    return np.sort(rng.choice(num_nodes, size=size, replace=False))


def train(dataset: Dataset, config: TrainConfig) -> tuple[ModelParams, TrainTrace]:
    """Run the epoch loop; returns final parameters and the full loss trace.

    Aborts with NumericError (epoch index and breakdown attached) when any
    loss component goes non-finite.
    """
    config.validate()
    weights = LossWeights.from_config(config)
    params = init_params(config, dataset.feature_dim)
    params.config_hash = config_hash(config)
    adj = normalize(dataset.graph)
    x = T.tensor(dataset.features)
    trace = TrainTrace()
    mode = config.encoder_mode

    for epoch in range(config.epochs):
        started = time.perf_counter()
        mask_plan, drop_plan = draw_plans(config, epoch, dataset.num_nodes)
        needs_drop_view = mode != "mae_only"
        drop_adj = normalize(drop_nodes(dataset.graph, drop_plan)) if needs_drop_view else adj

        with T.Tape() as tape:
            x_hat = mask_features(x, mask_plan)
            out = forward(params, config, adj, drop_adj, x, x_hat, mask_plan.masked_nodes)
            sce = contrastive = mse = bce = dist = variance = None
            dist_skipped = False
            if out.z is not None:
                sce = sce_loss(x, out.z, mask_plan.masked_nodes, config.gamma)
                if weights.lambda_ > 0:
                    block = _sample_block(config, epoch, dataset.num_nodes)
                    adj_losses = adj_recon_losses(out.z, dataset.graph, block)
                    mse, bce = adj_losses.mse, adj_losses.bce
                    dist, dist_skipped = adj_losses.dist, adj_losses.dist_skipped
            if out.u is not None and weights.alpha > 0:
                contrastive = infonce_loss(out.u, out.v, config.tau)
            if weights.mu > 0:
                variance = variance_loss(out.h1, config.var_epsilon,
                                         literal=config.variance_literal)
            total, breakdown = total_loss(
                weights, sce=sce, contrastive=contrastive, mse=mse, bce=bce,
                dist=dist, variance=variance, dist_skipped=dist_skipped)
        if not np.isfinite(breakdown.total):
            raise NumericError(f"non-finite loss at epoch {epoch}: {breakdown}")
        grad_map = T.backward(tape, total)
        by_name = {name: grad_map[t].values
                   for name, t in params.weights.items() if t in grad_map}
        adam_step(params, by_name, config.lr, config.weight_decay, t=epoch + 1)

        probe = None
        if config.probe_every and (epoch + 1) % config.probe_every == 0:
            try:
                probe = similarity_probe(
                    params, dataset, config.probe_sample_size,
                    rng=np.random.default_rng(
                        np.random.SeedSequence([config.seed, epoch, _PROBE_STREAM])),
                    adjacency=adj)
            except ProbeError:
                # no sampled node has an exactly-5-hop neighbour; trace records "-"
                probe = None
        trace.entries.append(TraceEntry(epoch, breakdown, probe,
                                        time.perf_counter() - started))
    return params, trace


def similarity_probe(params: ModelParams, dataset: Dataset, sample_size: int,
                     k: int = 5, rng=None, adjacency=None) -> float:
    """Mean cosine similarity between sampled nodes' clean-graph embeddings and
    the mean embedding of their exactly-k-hop neighborhoods.

    Nodes with an empty k-hop set are skipped; raises when all are skipped.
    """
    rng = rng or np.random.default_rng(0)
    h = embed(params, dataset, adjacency).astype(np.float64)
    n = dataset.num_nodes
    nodes = rng.choice(n, size=min(sample_size, n), replace=False)
    sims = []
    for node, hop in zip(nodes.tolist(), khop_sets(dataset.graph, nodes, k)):
        if not hop.any():
            continue
        a, b = h[node], h[np.flatnonzero(hop)].mean(axis=0)
        denom = max(np.linalg.norm(a), 1e-8) * max(np.linalg.norm(b), 1e-8)
        sims.append(float(a @ b / denom))
    if not sims:
        raise ProbeError(f"no sampled node has any {k}-hop neighbor")
    return float(np.mean(sims))
