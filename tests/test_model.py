import numpy as np
import pytest

from gcmae import tensor as T
from gcmae.config import ConfigError, TrainConfig
from gcmae.graph import DataError, Dataset, SbmSpec, SparseGraph, generate_sbm, normalize
from gcmae.losses import LossWeights, infonce_loss, sce_loss, total_loss
from gcmae.model import (ModelParams, check_shapes, decode, embed, encode,
                         forward, init_params, load_checkpoint, project,
                         save_checkpoint)
from gcmae.training import similarity_probe

from gradcheck_utils import rel_err
import test_graph as G


def small_cfg(**kv):
    base = dict(d_hidden=8, d_proj=8, depth=2, epochs=1, seed=0)
    base.update(kv)
    return TrainConfig(**base).validate()


class TestInit:
    def test_encoder_shapes(self):
        params = init_params(small_cfg(), feature_dim=4)
        assert params["enc.0.w"].shape == (4, 8)
        assert params["enc.1.w"].shape == (8, 8)
        assert params["dec.w"].shape == (8, 4)
        assert params["proj1.0.w"].shape == (8, 8)
        assert params["proj1.1.w"].shape == (8, 8)

    def test_same_seed_bitwise_identical(self):
        a = init_params(small_cfg(seed=9), feature_dim=5)
        b = init_params(small_cfg(seed=9), feature_dim=5)
        for name in a.names():
            assert np.array_equal(a[name].values, b[name].values)

    def test_glorot_bound(self):
        bound = np.sqrt(6.0 / (13 + 11))
        draws = []
        for seed in range(20):
            cfg = TrainConfig(d_hidden=11, depth=1, seed=seed).validate()
            draws.append(init_params(cfg, feature_dim=13)["enc.0.w"].values)
        w = np.concatenate([d.ravel() for d in draws])
        assert w.size >= 1000
        assert float(np.abs(w).max()) <= bound

    def test_mode_parameter_sets(self):
        shared = init_params(small_cfg(encoder_mode="shared"), 4)
        assert not any(n.startswith("enc2") for n in shared.names())
        mae = init_params(small_cfg(encoder_mode="mae_only", alpha=0.0), 4)
        assert not any(n.startswith("proj") for n in mae.names())
        fusion = init_params(small_cfg(encoder_mode="fusion"), 4)
        assert any(n.startswith("enc2") for n in fusion.names())
        con = init_params(small_cfg(encoder_mode="contrastive_only", lambda_=0.0), 4)
        assert any(n.startswith("enc2") for n in con.names())
        # the two encoders are independently initialized
        assert not np.array_equal(fusion["enc.0.w"].values, fusion["enc2.0.w"].values)


class TestForwardMath:
    def test_single_layer_identity_weight(self):
        cfg = TrainConfig(d_hidden=1, depth=1, seed=0).validate()
        params = init_params(cfg, feature_dim=1)
        params["enc.0.w"].values = np.array([[1.0]], dtype=np.float32)
        adj = normalize(SparseGraph.from_edges(2, [(0, 1)]))
        h = encode(params, adj, T.tensor([[1.0], [1.0]]))
        assert np.allclose(h.values, [[1.0], [1.0]], atol=1e-6)

    def test_zero_features_zero_everything(self):
        cfg = small_cfg()
        params = init_params(cfg, feature_dim=4)
        g = SparseGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        adj = normalize(g)
        x = T.tensor(np.zeros((5, 4), dtype=np.float32))
        h = encode(params, adj, x)
        assert np.all(h.values == 0)
        z = decode(params, adj, h)
        assert np.all(z.values == 0)
        u = project(params, h, 1)  # zero biases at init
        assert np.all(u.values == 0)

    def test_encode_gradient_matches_reference_fd(self):
        cfg = TrainConfig(d_hidden=3, depth=2, seed=4).validate()
        ds = generate_sbm(SbmSpec(blocks=2, nodes_per_block=4, p_in=0.7,
                                  p_out=0.2, feature_dim=3, seed=1))
        params = init_params(cfg, 3)
        adj = normalize(ds.graph)
        adj_d = adj.to_dense().astype(np.float64)
        x = T.tensor(ds.features)
        with T.Tape() as tape:
            y = T.sum_all(encode(params, adj, x))
        grads = T.backward(tape, y)

        names = [n for n in params.names() if n.startswith("enc")]
        vals = {n: params[n].values.copy() for n in names}

        def ref(wv):
            h = ds.features.astype(np.float64)
            for layer in range(cfg.depth):
                pre = adj_d @ (h @ wv[f"enc.{layer}.w"].astype(np.float64))
                slope = wv[f"enc.{layer}.slope"][0, 0]
                h = np.where(pre > 0, pre, slope * pre)
            return float(h.sum())

        eps = 1e-4
        for name in names:
            got = grads[params[name]].values.astype(np.float64)
            fd = np.zeros_like(got)
            for pos in np.ndindex(*got.shape):
                b = {k: v.copy() for k, v in vals.items()}
                b[name][pos] += eps
                hi = ref(b)
                b[name][pos] -= 2 * eps
                lo = ref(b)
                fd[pos] = (hi - lo) / (2 * eps)
            assert rel_err(got, fd) < 1e-3


class TestModeWiring:
    def setup_method(self):
        self.ds = generate_sbm(SbmSpec(blocks=2, nodes_per_block=6, p_in=0.5,
                                       p_out=0.1, feature_dim=4, seed=3))
        self.adj = normalize(self.ds.graph)
        self.x = T.tensor(self.ds.features)

    def run_forward(self, cfg):
        params = init_params(cfg, self.ds.feature_dim)
        x_hat = T.masked_fill_rows(self.x, [0, 3], 0.0)
        return params, forward(params, cfg, self.adj, self.adj, self.x, x_hat, [0, 3])

    def test_shared_has_all_outputs(self):
        _, out = self.run_forward(small_cfg())
        assert all(t is not None for t in (out.h1, out.h2, out.z, out.u, out.v))
        assert out.h1_con is None

    def test_mae_only_has_h1_z_only(self):
        _, out = self.run_forward(small_cfg(encoder_mode="mae_only", alpha=0.0))
        assert out.h1 is not None and out.z is not None
        assert out.h2 is None and out.u is None and out.v is None

    def test_contrastive_only_omits_z(self):
        _, out = self.run_forward(small_cfg(encoder_mode="contrastive_only",
                                            lambda_=0.0))
        assert out.z is None
        assert all(t is not None for t in (out.h1, out.h2, out.u, out.v))

    def test_remask_decoder_flag(self):
        cfg = small_cfg(encoder_mode="mae_only", alpha=0.0, remask_decoder=True)
        params = init_params(cfg, self.ds.feature_dim)
        masked = np.array([0, 3, 7])
        x_hat = T.masked_fill_rows(self.x, masked, 0.0)
        out = forward(params, cfg, self.adj, self.adj, self.x, x_hat, masked)
        h1_remasked = T.masked_fill_rows(out.h1, masked, 0.0)
        expect = decode(params, self.adj, h1_remasked)
        assert np.array_equal(out.z.values, expect.values)
        plain = forward(params, cfg.with_overrides(remask_decoder=False),
                        self.adj, self.adj, self.x, x_hat, masked)
        assert not np.array_equal(out.z.values, plain.z.values)

    def test_fusion_eval_embedding_is_two_encoder_mean(self):
        cfg = small_cfg(encoder_mode="fusion")
        params = init_params(cfg, self.ds.feature_dim)
        got = embed(params, self.ds, self.adj)
        h_mae = encode(params, self.adj, self.x, "enc").values
        h_con = encode(params, self.adj, self.x, "enc2").values
        expect = (h_mae.astype(np.float64) + h_con.astype(np.float64)) / 2
        assert rel_err(got.astype(np.float64), expect) < 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        n = self.ds.num_nodes
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        cfg = small_cfg()
        params = init_params(cfg, self.ds.feature_dim)

        rows = np.repeat(np.arange(n), self.ds.graph.degrees())
        edges_p = np.stack([perm[rows], perm[self.ds.graph.col_indices]], axis=1)
        g_p = SparseGraph.from_edges(n, edges_p, is_undirected=True)
        adj_p = normalize(g_p)
        x_p = T.tensor(self.ds.features[inv])

        masked = np.array([0, 3])
        out = forward(params, cfg, self.adj, self.adj, self.x,
                      T.masked_fill_rows(self.x, masked, 0.0), masked)
        masked_p = np.sort(perm[masked])
        out_p = forward(params, cfg, adj_p, adj_p, x_p,
                        T.masked_fill_rows(x_p, masked_p, 0.0), masked_p)
        for a, b in ((out.h1, out_p.h1), (out.z, out_p.z), (out.u, out_p.u)):
            assert rel_err(a.values.astype(np.float64),
                           b.values[perm].astype(np.float64)) < 2e-5

    def test_shared_encoder_gradient_additivity(self):
        cfg = small_cfg(alpha=0.5)
        params = init_params(cfg, self.ds.feature_dim)
        masked = np.array([0, 3, 7])
        w = LossWeights.from_config(cfg)

        def run(include):
            with T.Tape() as tape:
                x_hat = T.masked_fill_rows(self.x, masked, 0.0)
                out = forward(params, cfg, self.adj, self.adj, self.x, x_hat, masked)
                sce = sce_loss(self.x, out.z, masked, cfg.gamma)
                con = infonce_loss(out.u, out.v, cfg.tau)
                if include == "both":
                    total, _ = total_loss(w, sce=sce, contrastive=con)
                elif include == "sce":
                    total = sce
                else:
                    total = con
                grads = T.backward(tape, total)
            return {n: (grads[t].values.astype(np.float64) if t in grads
                        else np.zeros(t.shape))
                    for n, t in params.weights.items()}

        joint, g_sce, g_con = run("both"), run("sce"), run("con")
        for layer in range(cfg.depth):
            name = f"enc.{layer}.w"
            assert rel_err(joint[name], g_sce[name] + cfg.alpha * g_con[name]) < 1e-4
            assert np.abs(g_con[name]).max() > 0  # both branches reach the shared encoder
            assert np.abs(g_sce[name]).max() > 0


class TestCheckpoint:
    def make_params(self, **kv):
        cfg = small_cfg(**kv)
        params = init_params(cfg, feature_dim=4)
        params.step = 17
        params.config_hash = "deadbeef01234567"
        rng = np.random.default_rng(0)
        for name in params.names():
            params.adam_m[name] = rng.normal(size=params.adam_m[name].shape).astype(np.float32)
            params.adam_v[name] = np.abs(rng.normal(size=params.adam_v[name].shape)).astype(np.float32)
        return params

    def test_bit_exact_round_trip(self, tmp_path):
        params = self.make_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.mode == params.mode
        assert loaded.step == 17
        assert loaded.config_hash == "deadbeef01234567"
        assert loaded.names() == params.names()
        for name in params.names():
            assert np.array_equal(loaded[name].values, params[name].values)
            assert np.array_equal(loaded.adam_m[name], params.adam_m[name])
            assert np.array_equal(loaded.adam_v[name], params.adam_v[name])
        # byte-stable re-save
        path2 = str(tmp_path / "model2.ckpt")
        save_checkpoint(loaded, path2)
        assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "model2.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTGCM" + b"\x00" * 30)
        from gcmae.model import CheckpointError
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_file(self, tmp_path):
        params = self.make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 7])
        from gcmae.model import CheckpointError
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_oversized_record_rejected_before_allocation(self, tmp_path):
        """A 40-byte file whose header claims a 4096 x 4096 record (64 MB)."""
        import struct
        import tracemalloc
        from gcmae.model import CheckpointError
        name = b"w/enc0"
        data = (b"GCMAE1" + struct.pack("<II", 1, len(name)) + name
                + struct.pack("<II", 4096, 4096) + b"\x00" * 12)
        assert len(data) == 40
        path = tmp_path / "huge.ckpt"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_shape_mismatch_against_other_config(self, tmp_path):
        params = self.make_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        other = init_params(small_cfg(d_hidden=16, d_proj=16), feature_dim=4)
        with pytest.raises(DataError):
            check_shapes(loaded, other)


class TestSimilarityProbe:
    def test_identical_embeddings_probe_one(self, monkeypatch):
        ds = generate_sbm(SbmSpec(blocks=2, nodes_per_block=10, p_in=0.5,
                                  p_out=0.2, feature_dim=4, seed=0))
        import gcmae.training as train_mod
        h = np.tile(np.array([[1.0, 2.0, 3.0]]), (ds.num_nodes, 1))
        monkeypatch.setattr(train_mod, "embed", lambda p, d, a=None: h)
        value = similarity_probe(None, ds, sample_size=10, k=2,
                                 rng=np.random.default_rng(0))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_orthogonalish_embeddings_probe_near_zero(self, monkeypatch):
        ds = generate_sbm(SbmSpec(blocks=3, nodes_per_block=40, p_in=0.2,
                                  p_out=0.05, feature_dim=4, seed=1))
        import gcmae.training as train_mod
        rng = np.random.default_rng(5)
        h = rng.normal(size=(ds.num_nodes, 256))
        monkeypatch.setattr(train_mod, "embed", lambda p, d, a=None: h)
        value = similarity_probe(None, ds, sample_size=64, k=2,
                                 rng=np.random.default_rng(0))
        assert abs(value) < 0.1

    @pytest.mark.parametrize("k,sample_size", [(3, 64), (5, 300)])
    def test_matches_per_node_bfs_probe(self, k, sample_size):
        """Bit for bit against the probe as written over the per-node BFS, on
        the pinned 3x100 benchmark graph. That graph holds 2 exactly-5-hop
        pairs, so k=5 samples every node."""
        ds = generate_sbm(SbmSpec(blocks=3, nodes_per_block=100, p_in=0.1,
                                  p_out=0.01, feature_dim=16, seed=0))
        params = init_params(small_cfg(), 16)
        h = embed(params, ds).astype(np.float64)
        nodes = np.random.default_rng(11).choice(ds.num_nodes, size=sample_size,
                                                 replace=False)
        sims = []
        for node in nodes:
            hop = G.reference_khop(ds.graph, int(node), k)
            if not hop:
                continue
            a, b = h[int(node)], h[sorted(hop)].mean(axis=0)
            denom = max(np.linalg.norm(a), 1e-8) * max(np.linalg.norm(b), 1e-8)
            sims.append(float(a @ b / denom))
        assert sims
        value = similarity_probe(params, ds, sample_size, k=k,
                                 rng=np.random.default_rng(11))
        assert value == float(np.mean(sims))

    def test_all_skipped_raises(self):
        from gcmae.training import ProbeError
        ds = generate_sbm(SbmSpec(blocks=1, nodes_per_block=3, p_in=1.0,
                                  p_out=0.0, feature_dim=2, seed=0))
        cfg = small_cfg(d_hidden=4, d_proj=4)
        params = init_params(cfg, 2)
        with pytest.raises(ProbeError):
            similarity_probe(params, ds, sample_size=3, k=5,
                             rng=np.random.default_rng(0))


class TestConfigValidation:
    def test_mode_weight_consistency(self):
        with pytest.raises(ConfigError):
            TrainConfig(encoder_mode="mae_only", alpha=0.5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(encoder_mode="contrastive_only", lambda_=0.3).validate()

    def test_depth_width_contract(self):
        cfg = small_cfg(d_hidden=12, d_proj=6, depth=3)
        ds = generate_sbm(SbmSpec(blocks=2, nodes_per_block=5, p_in=0.5,
                                  p_out=0.1, feature_dim=4, seed=2))
        params = init_params(cfg, 4)
        adj = normalize(ds.graph)
        h = encode(params, adj, T.tensor(ds.features))
        assert h.shape == (10, 12)
        assert project(params, h, 1).shape == (10, 6)
        assert decode(params, adj, h).shape == (10, 4)
