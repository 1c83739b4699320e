import numpy as np
import pytest

from gcmae.graph import (
    DataError,
    Dataset,
    SbmSpec,
    SparseGraph,
    TEST,
    TRAIN,
    VAL,
    generate_sbm,
    khop_neighbors,
    khop_sets,
    load_dataset,
    normalize,
    save_dataset,
)


def write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SMALL = "NODES 2 1\n0: 1.0\n1: 2.0\nEDGES 1\n0 1\nUNDIRECTED\n"


class TestLoadDataset:
    def test_smallest_valid_file(self, tmp_path):
        ds = load_dataset(write(tmp_path, SMALL))
        assert ds.num_nodes == 2
        assert ds.graph.num_arcs == 2  # symmetrized
        assert np.allclose(ds.features, [[1.0], [2.0]])
        assert ds.graph.is_undirected

    def test_feature_row_count_mismatch(self, tmp_path):
        bad = "NODES 3 1\n0: 1.0\n1: 2.0\nEDGES 0\nUNDIRECTED\n"
        with pytest.raises(DataError, match="feature row count mismatch"):
            load_dataset(write(tmp_path, bad))

    def test_self_loop_dropped(self, tmp_path):
        text = "NODES 2 1\n0: 1.0\n1: 2.0\nEDGES 2\n0 0\n0 1\nUNDIRECTED\n"
        ds = load_dataset(write(tmp_path, text))
        assert ds.graph.num_arcs == 2
        assert (0, 0) not in ds.graph.arc_set()

    def test_duplicate_edge_merged(self, tmp_path):
        text = "NODES 2 1\n0: 1.0\n1: 2.0\nEDGES 3\n0 1\n0 1\n1 0\nUNDIRECTED\n"
        ds = load_dataset(write(tmp_path, text))
        assert ds.graph.num_arcs == 2

    def test_edge_out_of_range(self, tmp_path):
        text = "NODES 2 1\n0: 1.0\n1: 2.0\nEDGES 1\n0 5\nUNDIRECTED\n"
        with pytest.raises(DataError, match="out of range"):
            load_dataset(write(tmp_path, text))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_dataset(write(tmp_path, "VERTICES 2 1\n"))

    def test_ids_out_of_order(self, tmp_path):
        text = "NODES 2 1\n1: 1.0\n0: 2.0\nEDGES 0\n"
        with pytest.raises(DataError, match="order"):
            load_dataset(write(tmp_path, text))

    def test_labels_section(self, tmp_path):
        text = SMALL + "LABELS\n0 0\n1 1\n"
        ds = load_dataset(write(tmp_path, text))
        assert ds.labels.tolist() == [0, 1]
        assert ds.num_classes == 2

    def test_roundtrip_idempotent(self, tmp_path):
        spec = SbmSpec(blocks=3, nodes_per_block=20, p_in=0.3, p_out=0.05,
                       feature_dim=4, seed=11)
        ds = generate_sbm(spec)
        p1 = str(tmp_path / "a.txt")
        p2 = str(tmp_path / "b.txt")
        save_dataset(ds, p1)
        ds2 = load_dataset(p1)
        save_dataset(ds2, p2)
        ds3 = load_dataset(p2)
        assert np.array_equal(ds2.graph.row_offsets, ds3.graph.row_offsets)
        assert np.array_equal(ds2.graph.col_indices, ds3.graph.col_indices)
        assert np.array_equal(ds2.features, ds3.features)
        assert np.array_equal(ds2.labels, ds3.labels)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestNormalize:
    def test_single_edge_pair(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        adj = normalize(g)
        dense = adj.to_dense()
        assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_node(self):
        g = SparseGraph.from_edges(3, [(0, 1)])
        dense = normalize(g).to_dense()
        assert dense[2, 2] == pytest.approx(1.0)
        assert np.count_nonzero(dense[2]) == 1

    def test_triangle(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        dense = normalize(g).to_dense()
        expect = np.full((3, 3), 1.0 / 3.0)
        assert np.allclose(dense, expect, atol=1e-7)

    def test_symmetry_weights_and_spectrum(self):
        # row sums can exceed 1 on degree-heterogeneous graphs (star graphs);
        # the sound bounds are weight range, symmetry, and spectral radius <= 1
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.25]
            g = SparseGraph.from_edges(n, edges)
            dense = normalize(g).to_dense().astype(np.float64)
            assert np.allclose(dense, dense.T, atol=1e-7)
            w = dense[dense > 0]
            assert np.all(w <= 1.0 + 1e-7)
            eigs = np.linalg.eigvalsh(dense)
            assert np.max(np.abs(eigs)) <= 1.0 + 1e-6

    def test_equal_degree_row_sum_is_one(self):
        # triangle: every node and neighbor has equal degree
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        sums = normalize(g).to_dense().astype(np.float64).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_unequal_degree_row_sum_differs_from_one(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])  # path: degrees 1,2,1
        sums = normalize(g).to_dense().astype(np.float64).sum(axis=1)
        assert not np.allclose(sums, 1.0, atol=1e-3)


class TestSbm:
    def test_degenerate_probabilities(self):
        spec = SbmSpec(blocks=2, nodes_per_block=2, p_in=1.0, p_out=0.0,
                       feature_dim=2, seed=0)
        ds = generate_sbm(spec)
        arcs = ds.graph.arc_set()
        assert arcs == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_determinism(self):
        spec = SbmSpec(blocks=3, nodes_per_block=10, p_in=0.4, p_out=0.1,
                       feature_dim=5, seed=42)
        a, b = generate_sbm(spec), generate_sbm(spec)
        assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.split, b.split)

    def test_intra_block_density(self):
        spec = SbmSpec(blocks=3, nodes_per_block=100, p_in=0.1, p_out=0.01,
                       feature_dim=4, seed=7)
        ds = generate_sbm(spec)
        labels = ds.labels
        intra = sum(1 for (u, v) in ds.graph.arc_set()
                    if u < v and labels[u] == labels[v])
        pairs = 3 * 100 * 99 / 2
        assert 0.07 <= intra / pairs <= 0.13

    def test_split_fractions_stratified(self):
        spec = SbmSpec(blocks=3, nodes_per_block=100, p_in=0.1, p_out=0.01,
                       feature_dim=4, seed=1)
        ds = generate_sbm(spec)
        for c in range(3):
            mask = ds.labels == c
            assert np.sum((ds.split == TRAIN) & mask) == 10
            assert np.sum((ds.split == VAL) & mask) == 10
            assert np.sum((ds.split == TEST) & mask) == 80

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SbmSpec(blocks=2, nodes_per_block=2, p_in=0.1, p_out=0.5, feature_dim=2)
        with pytest.raises(DataError):
            SbmSpec(blocks=4, nodes_per_block=2, p_in=0.5, p_out=0.1, feature_dim=2)


def bfs_distances(graph, source):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def reference_khop(graph, node, k):
    """The per-node Python BFS that khop_sets replaced, kept as its reference."""
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[node] = 0
    frontier = [node]
    for depth in range(1, k + 1):
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if dist[v] < 0:
                    dist[v] = depth
                    nxt.append(int(v))
        if not nxt:
            return set()
        frontier = nxt
    return set(frontier)


class TestKhopSets:
    @staticmethod
    def undirected_sbm():
        g = generate_sbm(SbmSpec(blocks=3, nodes_per_block=20, p_in=0.15, p_out=0.02,
                                 feature_dim=3, seed=4)).graph
        assert g.is_undirected
        return g

    @staticmethod
    def directed_random():
        rng = np.random.default_rng(7)
        arcs = [(i, j) for i in range(40) for j in range(40) if rng.random() < 0.06]
        g = SparseGraph.from_edges(40, arcs, is_undirected=False)
        in_degrees = np.bincount(g.col_indices, minlength=g.num_nodes)
        assert not g.is_undirected and np.any(in_degrees != g.degrees())
        return g

    @staticmethod
    def isolated_nodes():
        rng = np.random.default_rng(8)
        edges = [(i, j) for i in range(25) for j in range(i + 1, 25) if rng.random() < 0.12]
        g = SparseGraph.from_edges(30, edges)  # nodes 25-29 have no edge
        assert np.all(g.degrees()[25:] == 0)
        return g

    @staticmethod
    def beyond_diameter():
        # a 4-cycle with a tail of two: diameter 4, so no node has a 6-hop set
        g = SparseGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)])
        assert all(not reference_khop(g, v, 5) for v in range(6))
        return g

    @pytest.mark.parametrize("make", ["undirected_sbm", "directed_random",
                                      "isolated_nodes", "beyond_diameter"])
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_matches_per_node_bfs(self, make, k):
        g = getattr(self, make)()
        nodes = np.random.default_rng(k).permutation(g.num_nodes)
        sets = khop_sets(g, nodes, k)
        assert sets.shape == (g.num_nodes, g.num_nodes) and sets.dtype == bool
        for node, row in zip(nodes.tolist(), sets):
            assert set(np.flatnonzero(row).tolist()) == reference_khop(g, node, k), node

    def test_k_below_one_rejected(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            khop_sets(g, [0], 0)


class TestKhop:
    def test_path_graph(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
        assert khop_neighbors(g, 0, 2) == {2}

    def test_triangle_empty(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert khop_neighbors(g, 0, 2) == set()

    def test_against_bfs_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = int(rng.integers(5, 60))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.08]
            g = SparseGraph.from_edges(n, edges)
            src = int(rng.integers(0, n))
            dist = bfs_distances(g, src)
            for k in (1, 2, 3, 5):
                expect = {v for v, d in dist.items() if d == k}
                assert khop_neighbors(g, src, k) == expect


class TestDataset:
    def test_feature_mismatch_rejected(self):
        g = SparseGraph.from_edges(3, [(0, 1)])
        with pytest.raises(DataError):
            Dataset(g, np.zeros((2, 4), dtype=np.float32))

    def test_split_partitions_nodes(self):
        g = SparseGraph.from_edges(10, [(i, i + 1) for i in range(9)])
        ds = Dataset(g, np.zeros((10, 2), dtype=np.float32))
        assert np.all(np.isin(ds.split, [TRAIN, VAL, TEST]))
        assert len(ds.split) == 10
