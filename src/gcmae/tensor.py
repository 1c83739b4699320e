"""Dense 2-D float32 tensors with reverse-mode autodiff over a recorded tape.

Reductions (matmul inner loops, sums, means, variances, row norms) accumulate
in 64-bit and store results in 32-bit; adjoints are accumulated in 64-bit
during backward and returned as 32-bit tensors. No broadcasting beyond
row-vector with matrix; no tensors above rank 2.
"""

from __future__ import annotations

import numpy as np

from .graph import NormalizedAdjacency, SparseGraph

_DEBUG_VALIDATION = False
_NORM_FLOOR = 1e-8


class ShapeError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


def set_debug_validation(enabled: bool) -> None:
    """When on, every primitive checks its output for NaN/Inf."""
    global _DEBUG_VALIDATION
    _DEBUG_VALIDATION = enabled


class Tensor:
    """A rows x cols float32 value, optionally tracked for gradients."""

    __slots__ = ("values", "requires_grad", "is_leaf")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float32)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.values = arr
        self.requires_grad = requires_grad
        self.is_leaf = True

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError("item() requires a 1x1 tensor")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor({self.rows}x{self.cols}, grad={self.requires_grad})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    return Tensor(values, requires_grad=requires_grad)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


class _Record:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered op recording; single-owner while active, consumed by backward."""

    def __init__(self):
        self._records: list[_Record] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("another tape is already recording")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self) -> int:
        return len(self._records)


def _finite_check(arr: np.ndarray, name: str) -> None:
    if _DEBUG_VALIDATION and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite value produced by {name}")


def _emit(name: str, out_vals: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    _finite_check(out_vals, name)
    out = Tensor(out_vals)
    out.is_leaf = False
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE._records.append(_Record(inputs, out, backward_fn))
    return out


def custom_op(name: str, out_values: np.ndarray, inputs: tuple[Tensor, ...],
              backward_fn) -> Tensor:
    """Record a fused operation with a hand-written adjoint.

    backward_fn receives the float64 output adjoint and returns one float64
    adjoint (or None) per input, like any primitive.
    """
    return _emit(name, np.asarray(out_values, dtype=np.float32), inputs, backward_fn)


def backward(tape: Tape, scalar_output: Tensor) -> dict[Tensor, Tensor]:
    """Adjoints of a 1x1 tape output w.r.t. every requires_grad leaf on the tape.

    Leaves on the tape with no path to the output get zero gradients. The tape
    is consumed: records and saved activations are released.
    """
    if scalar_output.shape != (1, 1):
        raise ShapeError("backward requires a 1x1 scalar output")
    if tape._consumed:
        raise TapeError("tape already consumed by a previous backward")
    produced = {id(r.output) for r in tape._records}
    if id(scalar_output) not in produced:
        raise TapeError("scalar output was not recorded on this tape")

    adjoints: dict[int, np.ndarray] = {id(scalar_output): np.ones((1, 1), dtype=np.float64)}
    leaves: dict[int, Tensor] = {}
    for rec in reversed(tape._records):
        for t in rec.inputs:
            if t.requires_grad and t.is_leaf:
                leaves[id(t)] = t
        g = adjoints.get(id(rec.output))
        if g is None:
            continue
        input_adjoints = rec.backward_fn(g)
        for t, ga in zip(rec.inputs, input_adjoints):
            if ga is None or not t.requires_grad:
                continue
            acc = adjoints.get(id(t))
            if acc is None:
                adjoints[id(t)] = ga
            else:
                acc += ga

    grads: dict[Tensor, Tensor] = {}
    for key, leaf in leaves.items():
        g = adjoints.get(key)
        if g is None:
            g = np.zeros(leaf.shape, dtype=np.float64)
        grads[leaf] = Tensor(g.astype(np.float32))
    tape._records.clear()
    tape._consumed = True
    return grads


# ---------------------------------------------------------------------------
# primitives

def _f64(t: Tensor) -> np.ndarray:
    return t.values.astype(np.float64)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    a64, b64 = _f64(a), _f64(b)  # saved for the adjoint
    out = (a64 @ b64).astype(np.float32)

    def bwd(g):
        return g @ b64.T, a64.T @ g

    return _emit("matmul", out, (a, b), bwd)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T; used for cross-view similarity matrices."""
    if a.cols != b.cols:
        raise ShapeError(f"matmul_nt shape mismatch: {a.shape} x {b.shape}^T")
    a64, b64 = _f64(a), _f64(b)
    out = (a64 @ b64.T).astype(np.float32)

    def bwd(g):
        return g @ b64, g.T @ a64

    return _emit("matmul_nt", out, (a, b), bwd)


def _bucket_product(buckets, dense: np.ndarray) -> np.ndarray:
    """Row r is sum_k w[r, k] * dense[cols[r, k]], accumulated in float64 in
    CSR order by einsum (no BLAS), so no thread count changes a bit."""
    out = np.zeros(dense.shape)
    for rows, cols, weights in buckets:
        out[rows] = np.einsum("rk,rkd->rd", weights, dense[cols])
    return out


def spmm(adj, x: Tensor) -> Tensor:
    """Sparse times dense; the adjacency is a constant.

    A NormalizedAdjacency multiplies by its weights, a raw SparseGraph by unit
    weights. Forward and adjoint run one degree-bucketed kernel, on the
    adjacency's cached spmm_layout and on its transpose.
    """
    if not isinstance(adj, (NormalizedAdjacency, SparseGraph)):
        raise TypeError(f"spmm expects a graph or normalized adjacency, got {type(adj)!r}")
    if x.rows != adj.num_nodes:
        raise ShapeError(f"spmm expects {adj.num_nodes} rows, got {x.rows}")
    forward, transposed = adj.spmm_layout
    out64 = _bucket_product(forward, x.values.astype(np.float64))

    def bwd(g):
        return (_bucket_product(transposed, g),)

    return _emit("spmm", out64.astype(np.float32), (x,), bwd)


def _broadcast_pair(a: Tensor, b: Tensor, op: str):
    """Same shape, or one side a 1 x cols row vector."""
    if a.shape == b.shape:
        return None
    if a.cols == b.cols and a.rows == 1:
        return 0
    if a.cols == b.cols and b.rows == 1:
        return 1
    raise ShapeError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def _reduce_like(g: np.ndarray, t: Tensor) -> np.ndarray:
    if g.shape == t.shape:
        return g
    return g.sum(axis=0, keepdims=True, dtype=np.float64)


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_pair(a, b, "add")

    def bwd(g):
        return _reduce_like(g, a), _reduce_like(g, b)

    return _emit("add", a.values + b.values, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_pair(a, b, "sub")

    def bwd(g):
        return _reduce_like(g, a), _reduce_like(-g, b)

    return _emit("sub", a.values - b.values, (a, b), bwd)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_pair(a, b, "elementwise_mul")

    def bwd(g):
        # cast before multiplying: mixed f64*f32 ufunc loops are slow
        return (_reduce_like(g * b.values.astype(np.float64), a),
                _reduce_like(g * a.values.astype(np.float64), b))

    return _emit("elementwise_mul", a.values * b.values, (a, b), bwd)


def scale(t: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _emit("scale", t.values * np.float32(c), (t,), bwd)


def relu(t: Tensor) -> Tensor:
    mask = t.values > 0

    def bwd(g):
        return (np.where(mask, g, 0.0),)

    return _emit("relu", np.where(mask, t.values, np.float32(0.0)), (t,), bwd)


def prelu(t: Tensor, slope: Tensor) -> Tensor:
    """Leaky activation with one shared learnable 1x1 slope."""
    if slope.shape != (1, 1):
        raise ShapeError("prelu slope must be a 1x1 tensor")
    mask = t.values > 0
    a = slope.values[0, 0]

    def bwd(g):
        gt = g * np.where(mask, 1.0, float(a))
        gs = np.sum(g * np.where(mask, 0.0, _f64(t)), dtype=np.float64)
        return gt, np.array([[gs]], dtype=np.float64)

    return _emit("prelu", np.where(mask, t.values, a * t.values), (t, slope), bwd)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of a float64 array; exp never sees a positive argument."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of a float64 array scaled to unit L2 norm, denominator floored at
    _NORM_FLOOR; returns (unit rows, norms, denominators) for the adjoint."""
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    denom = np.maximum(norms, _NORM_FLOOR)
    return x / denom, norms, denom


def unit_rows_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray,
                       denom: np.ndarray) -> np.ndarray:
    """Adjoint of unit_rows given its outputs; floored rows pass g / denom."""
    inner = np.sum(y * g, axis=1, keepdims=True)
    return np.where(norms > _NORM_FLOOR, (g - y * inner) / denom, g / denom)


def sigmoid(t: Tensor) -> Tensor:
    y = stable_sigmoid(_f64(t))

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _emit("sigmoid", y.astype(np.float32), (t,), bwd)


def row_l2_normalize(t: Tensor) -> Tensor:
    """Rows scaled to unit L2 norm, denominator floored at 1e-8."""
    y, norms, denom = unit_rows(_f64(t))

    def bwd(g):
        return (unit_rows_backward(g, y, norms, denom),)

    return _emit("row_l2_normalize", y.astype(np.float32), (t,), bwd)


def sum_all(t: Tensor) -> Tensor:
    def bwd(g):
        return (np.full(t.shape, g[0, 0], dtype=np.float64),)

    return _emit("sum_all", np.array([[np.sum(_f64(t))]], dtype=np.float32), (t,), bwd)


def mean_all(t: Tensor) -> Tensor:
    count = t.values.size

    def bwd(g):
        return (np.full(t.shape, g[0, 0] / count, dtype=np.float64),)

    return _emit("mean_all", np.array([[np.sum(_f64(t)) / count]], dtype=np.float32), (t,), bwd)


def column_variance(t: Tensor) -> Tensor:
    """Per-column population variance, returned as 1 x cols."""
    x = _f64(t)
    n = t.rows
    mu = x.mean(axis=0, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=0, keepdims=True)

    def bwd(g):
        return ((2.0 / n) * (x - mu) * g,)

    return _emit("column_variance", var.astype(np.float32), (t,), bwd)


def power(t: Tensor, exponent: float) -> Tensor:
    """Elementwise t**exponent; negative bases need an integer-valued exponent."""
    p = float(exponent)
    x = _f64(t)
    y = np.power(x, p)

    def bwd(g):
        return (g * p * np.power(x, p - 1.0),)

    return _emit("power", y.astype(np.float32), (t,), bwd)


def log(t: Tensor) -> Tensor:
    x = _f64(t)

    def bwd(g):
        return (g / x,)

    return _emit("log", np.log(x).astype(np.float32), (t,), bwd)


def exp(t: Tensor) -> Tensor:
    y = np.exp(_f64(t))

    def bwd(g):
        return (g * y,)

    return _emit("exp", y.astype(np.float32), (t,), bwd)


def transpose_matmul_self(t: Tensor) -> Tensor:
    """t @ t.T, the Gram matrix of the rows."""
    x = _f64(t)
    out = (x @ x.T).astype(np.float32)

    def bwd(g):
        return ((g + g.T) @ x,)

    return _emit("transpose_matmul_self", out, (t,), bwd)


def gather_rows(t: Tensor, index) -> Tensor:
    idx = np.asarray(index, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= t.rows):
        raise ShapeError("gather_rows index out of range")

    def bwd(g):
        gx = np.zeros(t.shape, dtype=np.float64)
        np.add.at(gx, idx, g)
        return (gx,)

    return _emit("gather_rows", t.values[idx], (t,), bwd)


def masked_fill_rows(t: Tensor, index, value: float) -> Tensor:
    """Rows in index set to a constant; gradients flow only through other rows."""
    idx = np.asarray(index, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= t.rows):
        raise ShapeError("masked_fill_rows index out of range")
    out = t.values.copy()
    out[idx] = np.float32(value)

    def bwd(g):
        gx = g.copy()
        gx[idx] = 0.0
        return (gx,)

    return _emit("masked_fill_rows", out, (t,), bwd)


def clamp(t: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Elementwise clip; gradient passes only where the input was in range."""
    if lo is None and hi is None:
        raise ValueError("clamp needs at least one bound")
    x = t.values
    keep = np.ones(t.shape, dtype=bool)
    if lo is not None:
        keep &= x >= lo
    if hi is not None:
        keep &= x <= hi
    out = np.clip(x, lo, hi)

    def bwd(g):
        return (np.where(keep, g, 0.0),)

    return _emit("clamp", out, (t,), bwd)
