"""Parameter store, initialization, forward passes, and checkpoint IO.

The encoder is GCN-style propagation, prelu(spmm(adj, H @ W)) per layer, no
biases; the decoder is one layer of the same form mapping back to the feature
dimension; projectors are two-layer perceptrons with biases and prelu. Encoder
modes: shared (one encoder for both branches), mae_only, contrastive_only,
fusion (two independent encoders, downstream embedding is their mean).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .graph import DataError, Dataset, NormalizedAdjacency, normalize

_MAGIC = b"GCMAE1"
_GLOROT_SHRINK = 1.0 - 2e-7  # keeps |w| strictly under the bound after f32 cast
PRELU_INIT = 0.25


class CheckpointError(IOError):
    pass


class ModelParams:
    """Named trainable tensors plus Adam moment shadows and step count."""

    def __init__(self, mode: str):
        self.mode = mode
        self.weights: dict[str, T.Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.step = 0
        self.config_hash = ""

    def add_weight(self, name: str, values: np.ndarray) -> None:
        self.weights[name] = T.tensor(values, requires_grad=True)
        self.adam_m[name] = np.zeros(values.shape, dtype=np.float32)
        self.adam_v[name] = np.zeros(values.shape, dtype=np.float32)

    def names(self) -> list[str]:
        return list(self.weights)

    def __getitem__(self, name: str) -> T.Tensor:
        return self.weights[name]


@dataclass
class ForwardOutputs:
    """Branch outputs; fields are None when the mode omits the branch."""

    h1: T.Tensor | None = None        # masked-view embedding (MAE branch)
    h2: T.Tensor | None = None        # node-drop-view embedding
    z: T.Tensor | None = None         # decoder output, feature space
    u: T.Tensor | None = None         # projected view 1
    v: T.Tensor | None = None         # projected view 2
    h1_con: T.Tensor | None = None    # fusion only: contrastive masked-view embedding


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform(-1.0, 1.0, (fan_in, fan_out))
    return (u * bound * _GLOROT_SHRINK).astype(np.float32)


def init_params(config: TrainConfig, feature_dim: int) -> ModelParams:
    """Glorot-uniform weights, 0.25 prelu slopes, zero biases and moments.

    Deterministic in config.seed; the draw order is fixed by the name list.
    """
    config.validate()
    if feature_dim < 1:
        raise ValueError("feature_dim must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x1417]))
    params = ModelParams(config.encoder_mode)
    dh, dp = config.d_hidden, config.proj_dim

    def add_encoder(prefix: str) -> None:
        d_in = feature_dim
        for layer in range(config.depth):
            params.add_weight(f"{prefix}.{layer}.w", _glorot(rng, d_in, dh))
            params.add_weight(f"{prefix}.{layer}.slope",
                              np.full((1, 1), PRELU_INIT, dtype=np.float32))
            d_in = dh

    def add_projector(prefix: str) -> None:
        for layer, (a, b) in enumerate(((dh, dh), (dh, dp))):
            params.add_weight(f"{prefix}.{layer}.w", _glorot(rng, a, b))
            params.add_weight(f"{prefix}.{layer}.b", np.zeros((1, b), dtype=np.float32))
            params.add_weight(f"{prefix}.{layer}.slope",
                              np.full((1, 1), PRELU_INIT, dtype=np.float32))

    add_encoder("enc")
    if config.encoder_mode in ("contrastive_only", "fusion"):
        add_encoder("enc2")
    params.add_weight("dec.w", _glorot(rng, dh, feature_dim))
    params.add_weight("dec.slope", np.full((1, 1), PRELU_INIT, dtype=np.float32))
    if config.encoder_mode != "mae_only":
        add_projector("proj1")
        add_projector("proj2")
    return params


def encode(params: ModelParams, adjacency: NormalizedAdjacency, x: T.Tensor,
           prefix: str = "enc") -> T.Tensor:
    h = x
    layer = 0
    while f"{prefix}.{layer}.w" in params.weights:
        h = T.prelu(T.spmm(adjacency, T.matmul(h, params[f"{prefix}.{layer}.w"])),
                    params[f"{prefix}.{layer}.slope"])
        layer += 1
    if layer == 0:
        raise KeyError(f"no encoder weights under prefix {prefix!r}")
    return h


def decode(params: ModelParams, adjacency: NormalizedAdjacency, h1: T.Tensor) -> T.Tensor:
    return T.prelu(T.spmm(adjacency, T.matmul(h1, params["dec.w"])),
                   params["dec.slope"])


def project(params: ModelParams, h: T.Tensor, which: int) -> T.Tensor:
    p = f"proj{which}"
    hidden = T.prelu(T.add(T.matmul(h, params[f"{p}.0.w"]), params[f"{p}.0.b"]),
                     params[f"{p}.0.slope"])
    return T.prelu(T.add(T.matmul(hidden, params[f"{p}.1.w"]), params[f"{p}.1.b"]),
                   params[f"{p}.1.slope"])


def forward(params: ModelParams, config: TrainConfig,
            adjacency: NormalizedAdjacency, drop_adjacency: NormalizedAdjacency,
            x: T.Tensor, x_masked: T.Tensor, masked_nodes) -> ForwardOutputs:
    """Mode-dependent wiring of encoder(s), decoder, and projectors."""
    mode = params.mode
    out = ForwardOutputs()
    if mode in ("shared", "mae_only", "fusion"):
        out.h1 = encode(params, adjacency, x_masked, "enc")
        dec_in = out.h1
        if config.remask_decoder:
            dec_in = T.masked_fill_rows(out.h1, masked_nodes, 0.0)
        out.z = decode(params, adjacency, dec_in)
    if mode == "shared":
        out.h2 = encode(params, drop_adjacency, x, "enc")
        out.u = project(params, out.h1, 1)
        out.v = project(params, out.h2, 2)
    elif mode == "contrastive_only":
        out.h1 = encode(params, adjacency, x_masked, "enc2")
        out.h2 = encode(params, drop_adjacency, x, "enc2")
        out.u = project(params, out.h1, 1)
        out.v = project(params, out.h2, 2)
    elif mode == "fusion":
        out.h1_con = encode(params, adjacency, x_masked, "enc2")
        out.h2 = encode(params, drop_adjacency, x, "enc2")
        out.u = project(params, out.h1_con, 1)
        out.v = project(params, out.h2, 2)
    return out


def embed(params: ModelParams, dataset: Dataset,
          adjacency: NormalizedAdjacency | None = None) -> np.ndarray:
    """Downstream embedding: encoder output on the clean graph and features.

    Fusion mode averages the two encoders' outputs.
    """
    adj = adjacency if adjacency is not None else normalize(dataset.graph)
    x = T.tensor(dataset.features)
    if params.mode in ("shared", "mae_only"):
        return encode(params, adj, x, "enc").values
    if params.mode == "contrastive_only":
        return encode(params, adj, x, "enc2").values
    h_mae = encode(params, adj, x, "enc").values
    h_con = encode(params, adj, x, "enc2").values
    return ((h_mae.astype(np.float64) + h_con.astype(np.float64)) / 2.0).astype(np.float32)


# ---------------------------------------------------------------------------
# checkpoint format: magic "GCMAE1", u32 record count, then per-weight records
# (u32 name length, utf-8 name, u32 rows, u32 cols, row-major f32 LE values).
# Adam moments ride as "m/" and "v/" records, metadata as zero-sized records.

def _write_record(fh, name: str, arr: np.ndarray | None) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    if arr is None:
        fh.write(struct.pack("<II", 0, 0))
        return
    fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_checkpoint(params: ModelParams, path: str) -> None:
    records = []
    records.append((f"#mode={params.mode}", None))
    records.append((f"#step={params.step}", None))
    records.append((f"#confighash={params.config_hash}", None))
    for name, t in params.weights.items():
        records.append((f"w/{name}", t.values))
    for name, arr in params.adam_m.items():
        records.append((f"m/{name}", arr))
    for name, arr in params.adam_v.items():
        records.append((f"v/{name}", arr))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(records)))
        for name, arr in records:
            _write_record(fh, name, arr)


def _read_exact(fh, count: int) -> bytes:
    # checked before reading, so a corrupt size word allocates nothing
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint file: a {count}-byte field "
                              "runs past the end")
    return fh.read(count)


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError("bad checkpoint magic")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        params = ModelParams(mode="shared")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
            name = _read_exact(fh, name_len).decode("utf-8")
            rows, cols = struct.unpack("<II", _read_exact(fh, 8))
            if name.startswith("#"):
                key, _, val = name[1:].partition("=")
                if key == "mode":
                    params.mode = val
                elif key == "step":
                    params.step = int(val)
                elif key == "confighash":
                    params.config_hash = val
                continue
            data = np.frombuffer(_read_exact(fh, rows * cols * 4), dtype="<f4")
            arr = data.reshape(rows, cols).copy()
            kind, _, wname = name.partition("/")
            if kind == "w":
                params.weights[wname] = T.tensor(arr, requires_grad=True)
            elif kind == "m":
                params.adam_m[wname] = arr
            elif kind == "v":
                params.adam_v[wname] = arr
            else:
                raise CheckpointError(f"unknown record kind {kind!r}")
        if fh.read(1):
            raise CheckpointError("trailing bytes after last record")
    missing = set(params.weights) ^ set(params.adam_m)
    if missing or set(params.weights) ^ set(params.adam_v):
        raise CheckpointError("checkpoint missing moment records")
    return params


def check_shapes(params: ModelParams, reference: ModelParams) -> None:
    """Raise when a checkpoint's layout differs from a freshly initialized one."""
    if params.mode != reference.mode:
        raise DataError(f"checkpoint mode {params.mode!r} != config mode {reference.mode!r}")
    if params.names() != reference.names():
        raise DataError("checkpoint weight names do not match config")
    for name in reference.names():
        if params[name].shape != reference[name].shape:
            raise DataError(
                f"shape mismatch for {name}: checkpoint {params[name].shape}, "
                f"config {reference[name].shape}")
