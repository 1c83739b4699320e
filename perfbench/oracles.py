"""Reference computations written apart from `gcmae`, in plain float64 numpy.

Each `check_*` returns None when the program's value agrees with the
reference, and a one-line message when it does not. `selftest.py` feeds each
of them a deliberately wrong value to show that it can fail.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

PROB_FLOOR = 1e-7   # the objective's documented probability clamp
NORM_FLOOR = 1e-8   # the documented cosine denominator floor


def check_close(name: str, got, want, rtol: float, atol: float) -> str | None:
    """None when |got - want| <= atol + rtol * |want| everywhere."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != reference {want.shape}"
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if not np.all(err <= limit):
        worst = int(np.argmax(err - limit))
        return (f"{name}: max |diff| {err.max():.3e} over tolerance "
                f"(got {float(got.flat[worst])!r}, reference {float(want.flat[worst])!r})")
    return None


# ---------------------------------------------------------------------------
# graph operators

def dense_adjacency(num_nodes: int, row_offsets, col_indices) -> np.ndarray:
    """0/1 float64 adjacency from CSR arrays."""
    a = np.zeros((num_nodes, num_nodes))
    rows = np.repeat(np.arange(num_nodes), np.diff(np.asarray(row_offsets)))
    a[rows, np.asarray(col_indices)] = 1.0
    return a


def gcn_operator(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 with D the degree of A + I."""
    a_hat = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def check_spmm(name: str, got: np.ndarray, operator: np.ndarray,
               x: np.ndarray) -> str | None:
    """Program's float32 A @ x against the float64 product."""
    return check_close(name, got, operator @ np.asarray(x, dtype=np.float64),
                       rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# objective terms

def _unit_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), NORM_FLOOR)


def infonce_reference(u: np.ndarray, v: np.ndarray, tau: float,
                      chunk: int = 512) -> float:
    """Symmetric InfoNCE by its definition: for anchor a_i the denominator
    holds exp(cos/tau) over every a_j (j != i) and every b_j, the numerator
    exp(cos(a_i, b_i)/tau). Rows are taken in chunks to bound memory."""
    a_all, b_all = _unit_rows(u), _unit_rows(v)
    n = a_all.shape[0]
    total = 0.0
    for a, b in ((a_all, b_all), (b_all, a_all)):
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            intra = np.exp(a[lo:hi] @ a.T / tau)
            intra[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
            inter = a[lo:hi] @ b.T / tau
            positive = inter[np.arange(hi - lo), np.arange(lo, hi)]
            den = intra.sum(axis=1) + np.exp(inter).sum(axis=1)
            total += float((np.log(den) - positive).sum())
    return total / (2 * n)


def check_infonce(got: float, u: np.ndarray, v: np.ndarray, tau: float) -> str | None:
    return check_close("infonce_loss", got, infonce_reference(u, v, tau),
                       rtol=2e-6, atol=0.0)


def adjacency_reference(z: np.ndarray, adjacency: np.ndarray,
                        block: np.ndarray) -> tuple[float, float]:
    """Off-diagonal mean squared error and binary cross-entropy between
    sigmoid(z_i . z_j) and A_ij over a node block, each divided by B^2."""
    zb = np.asarray(z, dtype=np.float64)[block]
    p = 0.5 * (1.0 + np.tanh(0.5 * (zb @ zb.T)))
    a = adjacency[np.ix_(block, block)]
    off = ~np.eye(block.size, dtype=bool)
    b2 = float(block.size) ** 2
    mse = float(((p - a) ** 2)[off].sum()) / b2
    pc = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    bce = -float((a * np.log(pc) + (1.0 - a) * np.log(1.0 - pc))[off].sum()) / b2
    return mse, bce


def check_adjacency(got_mse: float, got_bce: float, z: np.ndarray,
                    adjacency: np.ndarray, block: np.ndarray) -> str | None:
    mse, bce = adjacency_reference(z, adjacency, block)
    return (check_close("adj_mse", got_mse, mse, rtol=2e-6, atol=0.0)
            or check_close("adj_bce", got_bce, bce, rtol=2e-6, atol=0.0))


def check_trace_totals(rows, alpha: float, lambda_: float, mu: float) -> str | None:
    """rows: (epoch, sce, contrastive, mse, bce, dist, variance, total)."""
    for epoch, sce, con, mse, bce, dist, var, total in rows:
        want = sce + alpha * con + lambda_ * (mse + bce + dist) + mu * var
        bad = check_close(f"trace total at epoch {epoch}", total, want,
                          rtol=1e-5, atol=1e-7)
        if bad:
            return bad
    return None


# ---------------------------------------------------------------------------
# similarity probe

def exact_khop(adjacency: np.ndarray, nodes: np.ndarray, k: int) -> np.ndarray:
    """Row r: boolean mask of nodes at shortest-path distance exactly k from
    nodes[r], by frontier expansion over the dense adjacency."""
    m, n = nodes.size, adjacency.shape[0]
    seen = np.zeros((m, n), dtype=bool)
    seen[np.arange(m), nodes] = True
    frontier = seen.copy()
    for _ in range(k):
        frontier = ((frontier.astype(np.float64) @ adjacency) > 0) & ~seen
        seen |= frontier
    return frontier


def probe_reference(h: np.ndarray, adjacency: np.ndarray, nodes: np.ndarray,
                    k: int) -> tuple[float | None, int]:
    """Mean cosine between h[node] and the mean of h over its exactly-k-hop
    set, over nodes whose set is non-empty; and the count of empty sets."""
    h = np.asarray(h, dtype=np.float64)
    sets = exact_khop(adjacency, nodes, k)
    sims = []
    for node, mask in zip(nodes.tolist(), sets):
        if not mask.any():
            continue
        a, b = h[node], h[np.flatnonzero(mask)].mean(axis=0)
        sims.append(float(a @ b) / (max(np.linalg.norm(a), NORM_FLOOR)
                                    * max(np.linalg.norm(b), NORM_FLOOR)))
    empty = int((~sets.any(axis=1)).sum())
    return (float(np.mean(sims)) if sims else None), empty


def check_khop_sets(program_sets, adjacency: np.ndarray, nodes: np.ndarray,
                    k: int) -> str | None:
    ref = exact_khop(adjacency, nodes, k)
    for node, got, mask in zip(nodes.tolist(), program_sets, ref):
        if set(got) != set(np.flatnonzero(mask).tolist()):
            return (f"khop_neighbors({node}, {k}): {len(got)} nodes, reference "
                    f"{int(mask.sum())}")
    return None


def check_probe(got: float | None, got_empty: int, h: np.ndarray,
                adjacency: np.ndarray, nodes: np.ndarray, k: int) -> str | None:
    want, want_empty = probe_reference(h, adjacency, nodes, k)
    if got_empty != want_empty:
        return f"probe: {got_empty} empty {k}-hop sets, reference {want_empty}"
    if (got is None) != (want is None):
        return f"probe: value {got!r}, reference {want!r}"
    return None if got is None else check_close("probe", got, want, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# downstream metrics

def nmi_reference(pred, true) -> float:
    """Arithmetic-mean NMI from a contingency table of label pairs."""
    pred, true = list(map(int, pred)), list(map(int, true))
    n = len(pred)
    table = Counter(zip(pred, true))
    rows, cols = Counter(pred), Counter(true)
    mi = sum(c / n * math.log(n * c / (rows[i] * cols[j])) for (i, j), c in table.items())
    h_rows = -sum(c / n * math.log(c / n) for c in rows.values())
    h_cols = -sum(c / n * math.log(c / n) for c in cols.values())
    denom = (h_rows + h_cols) / 2.0
    return mi / denom if denom > 0 else 0.0


def check_nmi(got: float, pred, true) -> str | None:
    return check_close("nmi", got, nmi_reference(pred, true), rtol=1e-9, atol=1e-12)


def auc_reference(pos: np.ndarray, neg: np.ndarray) -> float:
    """Share of (positive, negative) pairs ordered correctly, ties counted half."""
    pos = np.asarray(pos, dtype=np.float64)[:, None]
    neg = np.asarray(neg, dtype=np.float64)[None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return wins / (pos.size * neg.size)


def check_auc(got: float, pos: np.ndarray, neg: np.ndarray) -> str | None:
    return check_close("auc", got, auc_reference(pos, neg), rtol=1e-12, atol=1e-12)


def check_at_least(name: str, got: float, floor: float) -> str | None:
    return None if got >= floor else f"{name} {got:.4f} below {floor}"


# ---------------------------------------------------------------------------
# files

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def check_bitwise(name: str, got: np.ndarray, want: np.ndarray) -> str | None:
    if got.dtype != want.dtype or got.shape != want.shape or got.tobytes() != want.tobytes():
        return f"{name}: not bit-identical"
    return None


def check_trace_epochs(lines: list[str], epochs: int) -> str | None:
    ids = [ln.split("\t", 1)[0] for ln in lines]
    if ids != [str(e) for e in range(epochs)]:
        return f"trace: {len(lines)} lines, expected epochs 0..{epochs - 1}"
    return None
