import numpy as np
import pytest

from gcmae import tensor as T
from gcmae.graph import SparseGraph, normalize

from gradcheck_utils import check_gradients, sample_composite_with_values, rel_err


def rnd(rng, *shape, lo=-1.2, hi=1.2):
    return rng.uniform(lo, hi, shape)


class TestForward:
    def test_matmul_identity(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, T.tensor(np.eye(2)))
        assert np.allclose(out.values, [[1, 2], [3, 4]])

    def test_spmm_two_node_graph(self):
        adj = normalize(SparseGraph.from_edges(2, [(0, 1)]))
        x = T.tensor([[1.0], [1.0]])
        out = T.spmm(adj, x)
        assert np.allclose(out.values, [[1.0], [1.0]])  # 1/2 + 1/2 per row

    def test_column_variance_constant(self):
        x = T.tensor(np.full((4, 3), 2.5))
        assert np.allclose(T.column_variance(x).values, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.tensor(np.zeros((2, 3))), T.tensor(np.zeros((2, 3))))
        with pytest.raises(T.ShapeError):
            T.add(T.tensor(np.zeros((2, 3))), T.tensor(np.zeros((3, 2))))

    def test_debug_validation_flags_nonfinite(self):
        import warnings
        T.set_debug_validation(True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(FloatingPointError):
                    T.log(T.tensor([[0.0, -1.0]]))
        finally:
            T.set_debug_validation(False)

    def test_broadcast_row_vector(self):
        m = T.tensor(np.ones((3, 2)))
        r = T.tensor([[1.0, 2.0]])
        assert np.allclose(T.sub(m, r).values, [[0, -1], [0, -1], [0, -1]])
        assert np.allclose(T.add(m, r).values, [[2, 3], [2, 3], [2, 3]])


class TestBackwardBasics:
    def test_sum_all_grad_is_ones(self):
        x = T.tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with T.Tape() as tape:
            y = T.sum_all(x)
        grads = T.backward(tape, y)
        assert np.allclose(grads[x].values, 1.0)

    def test_relu_kills_negative(self):
        x = T.tensor([[-1.0, 2.0]], requires_grad=True)
        with T.Tape() as tape:
            y = T.sum_all(T.relu(x))
        grads = T.backward(tape, y)
        assert np.allclose(grads[x].values, [[0.0, 1.0]])

    def test_non_scalar_rejected(self):
        x = T.tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            y = T.relu(x)
        with pytest.raises(T.ShapeError):
            T.backward(tape, y)

    def test_consumed_tape_rejected(self):
        x = T.tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            y = T.sum_all(x)
        T.backward(tape, y)
        with pytest.raises(T.TapeError):
            T.backward(tape, y)

    def test_unreached_leaf_gets_zeros(self):
        x = T.tensor(np.ones((2, 2)), requires_grad=True)
        z = T.tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            y = T.sum_all(x)
            T.relu(z)  # on the tape, no path to y
        grads = T.backward(tape, y)
        assert np.allclose(grads[z].values, 0.0)

    def test_backward_linearity(self):
        rng = np.random.default_rng(0)
        x = T.tensor(rnd(rng, 3, 3), requires_grad=True)
        a, b = 0.7, -1.3

        def f(t):
            return T.sum_all(T.sigmoid(t))

        def g(t):
            return T.mean_all(T.elementwise_mul(t, t))

        with T.Tape() as tape:
            y = T.add(T.scale(f(x), a), T.scale(g(x), b))
        combined = T.backward(tape, y)[x].values

        with T.Tape() as tape:
            yf = f(x)
        gf = T.backward(tape, yf)[x].values
        with T.Tape() as tape:
            yg = g(x)
        gg = T.backward(tape, yg)[x].values
        assert rel_err(combined.astype(np.float64),
                       (a * gf + b * gg).astype(np.float64)) < 1e-5


# per-primitive finite-difference checks; a constant-free scalar head
# (elementwise_mul with an extra leaf, then sum) exercises full Jacobians
class TestPrimitiveGradients:
    def test_matmul(self):
        rng = np.random.default_rng(1)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.matmul(ts[0], ts[1]), ts[2])),
            [rnd(rng, 3, 4), rnd(rng, 4, 2), rnd(rng, 3, 2)])

    def test_matmul_nt(self):
        rng = np.random.default_rng(2)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.matmul_nt(ts[0], ts[1]), ts[2])),
            [rnd(rng, 3, 4), rnd(rng, 5, 4), rnd(rng, 3, 5)])

    def test_spmm(self):
        rng = np.random.default_rng(3)
        adj = normalize(SparseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.spmm(ts[0], adj=adj), ts[1])),
            [rnd(rng, 4, 3), rnd(rng, 4, 3)])

    def test_add_sub_mul(self):
        rng = np.random.default_rng(4)
        check_gradients(
            lambda B, ts: B.sum_all(
                B.elementwise_mul(B.sub(B.add(ts[0], ts[1]), ts[2]), ts[3])),
            [rnd(rng, 3, 3) for _ in range(4)])

    def test_broadcast_add_sub_mul(self):
        rng = np.random.default_rng(5)
        check_gradients(
            lambda B, ts: B.sum_all(
                B.elementwise_mul(B.sub(ts[0], ts[1]), B.add(ts[0], ts[1]))),
            [rnd(rng, 4, 3), rnd(rng, 1, 3)])

    def test_scale(self):
        rng = np.random.default_rng(6)
        check_gradients(lambda B, ts: B.sum_all(B.scale(ts[0], -1.7)),
                        [rnd(rng, 2, 5)])

    def test_relu(self):
        rng = np.random.default_rng(7)
        x = rnd(rng, 4, 4)
        x = np.where(np.abs(x) < 0.05, 0.3, x)  # keep away from the kink
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.relu(ts[0]), ts[1])),
            [x, rnd(rng, 4, 4)])

    def test_prelu(self):
        rng = np.random.default_rng(8)
        x = rnd(rng, 4, 4)
        x = np.where(np.abs(x) < 0.05, -0.4, x)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.prelu(ts[0], ts[1]), ts[2])),
            [x, np.array([[0.25]]), rnd(rng, 4, 4)])

    def test_sigmoid(self):
        rng = np.random.default_rng(9)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.sigmoid(ts[0]), ts[1])),
            [rnd(rng, 3, 4, lo=-4, hi=4), rnd(rng, 3, 4)])

    def test_row_l2_normalize(self):
        rng = np.random.default_rng(10)
        x = rnd(rng, 4, 3) + np.sign(rnd(rng, 4, 3)) * 0.3
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.row_l2_normalize(ts[0]), ts[1])),
            [x, rnd(rng, 4, 3)])

    def test_sum_and_mean(self):
        rng = np.random.default_rng(11)
        check_gradients(lambda B, ts: B.sum_all(ts[0]), [rnd(rng, 3, 5)])
        check_gradients(lambda B, ts: B.mean_all(ts[0]), [rnd(rng, 3, 5)])

    def test_column_variance(self):
        rng = np.random.default_rng(12)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.column_variance(ts[0]), ts[1])),
            [rnd(rng, 5, 3), rnd(rng, 1, 3)])

    def test_power(self):
        rng = np.random.default_rng(13)
        check_gradients(
            lambda B, ts: B.sum_all(B.power(ts[0], 3.0)), [rnd(rng, 3, 3)])
        check_gradients(
            lambda B, ts: B.sum_all(B.power(ts[0], 0.5)),
            [rnd(rng, 3, 3, lo=0.3, hi=2.0)])

    def test_log(self):
        rng = np.random.default_rng(14)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.log(ts[0]), ts[1])),
            [rnd(rng, 3, 3, lo=0.2, hi=2.5), rnd(rng, 3, 3)])

    def test_exp(self):
        rng = np.random.default_rng(15)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.exp(ts[0]), ts[1])),
            [rnd(rng, 3, 3), rnd(rng, 3, 3)])

    def test_transpose_matmul_self(self):
        rng = np.random.default_rng(16)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(B.transpose_matmul_self(ts[0]), ts[1])),
            [rnd(rng, 4, 3), rnd(rng, 4, 4)])

    def test_gather_rows(self):
        rng = np.random.default_rng(17)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(
                B.gather_rows(ts[0], index=[2, 0, 2]), ts[1])),
            [rnd(rng, 4, 3), rnd(rng, 3, 3)])

    def test_masked_fill_rows(self):
        rng = np.random.default_rng(18)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(
                B.masked_fill_rows(ts[0], index=[1, 3], value=0.0), ts[1])),
            [rnd(rng, 5, 2), rnd(rng, 5, 2)])

    def test_clamp(self):
        rng = np.random.default_rng(19)
        x = rnd(rng, 4, 4, lo=-2, hi=2)
        x = x[(np.abs(x - 1.0) > 0.05) & (np.abs(x + 1.0) > 0.05)][:9].reshape(3, 3)
        check_gradients(
            lambda B, ts: B.sum_all(B.elementwise_mul(
                B.clamp(ts[0], lo=-1.0, hi=1.0), ts[1])),
            [x, rnd(rng, 3, 3)])


class TestRandomComposites:
    def test_twenty_random_composites(self):
        rng = np.random.default_rng(2024)
        for i in range(20):
            comp, leaves = sample_composite_with_values(rng)
            worst = check_gradients(comp.build, leaves)
            assert worst < 1e-4


def _spmm_oracle_cases(rng):
    """(label, adjacency, its dense float64 operator) for TestSpmmDenseOracle."""
    for n in (5, 17, 64):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.2]
        adj = normalize(SparseGraph.from_edges(n, edges))
        yield f"sbm-{n}", adj, adj.to_dense().astype(np.float64)
    n = 1500
    adj = normalize(SparseGraph.from_edges(n, rng.integers(0, n, size=(4 * n, 2))))
    yield "n>1024", adj, adj.to_dense().astype(np.float64)
    directed = SparseGraph.from_edges(40, rng.integers(0, 40, size=(150, 2)),
                                      is_undirected=False)
    in_deg = np.bincount(directed.col_indices, minlength=40)
    assert not np.array_equal(in_deg, directed.degrees())
    adj = normalize(directed)
    yield "directed", adj, adj.to_dense().astype(np.float64)
    isolated = SparseGraph.from_edges(10, [(0, 1), (1, 2), (5, 6)])
    assert (isolated.degrees() == 0).sum() == 5
    yield "raw-isolated", isolated, isolated.to_dense().astype(np.float64)
    hub = SparseGraph.from_edges(150, [(0, j) for j in range(1, 121)]
                                 + [tuple(e) for e in rng.integers(1, 150, size=(200, 2))])
    assert hub.degrees().max() >= 100
    adj = normalize(hub)
    yield "hub", adj, adj.to_dense().astype(np.float64)


class TestSpmmDenseOracle:
    def test_matches_densified_product(self):
        """Forward and adjoint against the dense product."""
        rng = np.random.default_rng(20)
        for label, adj, dense in _spmm_oracle_cases(rng):
            n = dense.shape[0]
            x = rnd(rng, n, 7).astype(np.float32)
            w = rnd(rng, n, 7).astype(np.float32)
            with T.Tape() as tape:
                xt = T.tensor(x, requires_grad=True)
                y = T.spmm(adj, xt)
                total = T.sum_all(T.elementwise_mul(y, T.constant(w)))
            grad = T.backward(tape, total)[xt].values.astype(np.float64)
            got = y.values.astype(np.float64)
            assert rel_err(got, dense @ x.astype(np.float64)) < 1e-6, label
            assert rel_err(grad, dense.T @ w.astype(np.float64)) < 1e-6, label

    def test_plain_graph_weights_are_one(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
        x = np.eye(3, dtype=np.float32)
        got = T.spmm(g, T.tensor(x)).values
        assert np.allclose(got, g.to_dense())


class TestTapeDeterminism:
    def test_bitwise_replay(self):
        def run():
            rng = np.random.default_rng(77)
            x = T.tensor(rng.normal(size=(6, 4)).astype(np.float32), requires_grad=True)
            w = T.tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
            with T.Tape() as tape:
                h = T.sigmoid(T.matmul(x, w))
                y = T.mean_all(T.transpose_matmul_self(h))
            grads = T.backward(tape, y)
            return y.values.copy(), grads[x].values.copy(), grads[w].values.copy()

        a = run()
        b = run()
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_nested_tape_rejected(self):
        with T.Tape():
            with pytest.raises(T.TapeError):
                with T.Tape():
                    pass
