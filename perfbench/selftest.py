"""Shows that every check of the benchmark can fail.

Each check runs twice on outputs of the program on a small SBM: once on the
true value, where it must pass, and once on a deliberately wrong value, where
it must fail. Prints one line per check and exits 1 if any check does not
behave so.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracles as O
import run
import workloads as W


def main() -> int:
    if not (run.SRC / "gcmae" / "__init__.py").is_file():
        print(f"selftest.py: no program at {run.SRC / 'gcmae'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    m = run.import_program()
    ds = m.graph.generate_sbm(m.graph.SbmSpec(
        blocks=3, nodes_per_block=40, p_in=0.08, p_out=0.005, feature_dim=8, seed=3))
    cfg = m.config.TrainConfig(epochs=6, d_hidden=16, block_size=60, probe_every=3,
                               probe_sample_size=16, seed=1).validate()
    params, trace = m.training.train(ds, cfg)
    adjacency = W.graph_adjacency(ds)
    n = ds.num_nodes
    results = []

    def case(name, truth, wrong):
        ok = truth is None and wrong is not None
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true value -> {truth or 'pass'}; "
              f"wrong value -> {wrong or 'pass'}")

    # spmm, forward and adjoint, on both paths
    T = m.tensor
    x = np.random.default_rng(0).standard_normal((n, 16)).astype(np.float32)
    operator = O.gcn_operator(adjacency)
    for label, adj, op in (("normalized", m.graph.normalize(ds.graph), operator),
                           ("graph", ds.graph, adjacency)):
        got = T.spmm(adj, T.tensor(x)).values
        bad = got.copy()
        bad[7, 3] += 1e-3
        case(f"spmm[{label}] vs dense product", O.check_spmm(label, got, op, x),
             O.check_spmm(label, bad, op, x))

    # InfoNCE and adjacency reconstruction on the final parameters
    mask_plan, drop_plan = m.augment.draw_plans(cfg, cfg.epochs, n)
    xt = T.tensor(ds.features)
    out = m.model.forward(params, cfg, m.graph.normalize(ds.graph),
                          m.graph.normalize(m.augment.drop_nodes(ds.graph, drop_plan)),
                          xt, m.augment.mask_features(xt, mask_plan), mask_plan.masked_nodes)
    u, v = out.u.values, out.v.values
    infonce = m.losses.infonce_loss(out.u, out.v, cfg.tau).item()
    case("infonce_loss vs float64 definition", O.check_infonce(infonce, u, v, cfg.tau),
         O.check_infonce(infonce * 1.001, u, v, cfg.tau))
    block = np.arange(0, n, 2)
    recon = m.losses.adj_recon_losses(out.z, ds.graph, block)
    mse, bce = recon.mse.item(), recon.bce.item()
    z = out.z.values
    case("adj mse vs float64 definition", O.check_adjacency(mse, bce, z, adjacency, block),
         O.check_adjacency(mse * 1.001, bce, z, adjacency, block))
    case("adj bce vs float64 definition", O.check_adjacency(mse, bce, z, adjacency, block),
         O.check_adjacency(mse, bce * 1.001, z, adjacency, block))

    # trace totals
    rows = [(e.epoch, b.sce, b.contrastive, b.mse, b.bce, b.dist, b.variance, b.total)
            for e in trace.entries for b in [e.breakdown]]
    case("trace total = weighted sum of terms",
         O.check_trace_totals(rows, cfg.alpha, cfg.lambda_, cfg.mu),
         O.check_trace_totals(rows, cfg.alpha * 1.1, cfg.lambda_, cfg.mu))

    # the probe: k-hop sets, empty count and value
    last = cfg.epochs - 1
    rng = lambda: np.random.default_rng(np.random.SeedSequence(  # noqa: E731
        [cfg.seed, last, m.training._PROBE_STREAM]))
    nodes = rng().choice(n, size=cfg.probe_sample_size, replace=False)
    sets = [m.graph.khop_neighbors(ds.graph, int(v), W.TRAIN_KHOP) for v in nodes]
    truncated = [set(s) for s in sets]
    victim = next(i for i, s in enumerate(truncated) if s)
    truncated[victim].pop()
    case("khop_neighbors vs dense frontier search",
         O.check_khop_sets(sets, adjacency, nodes, W.TRAIN_KHOP),
         O.check_khop_sets(truncated, adjacency, nodes, W.TRAIN_KHOP))
    probe = trace.entries[last].probe
    empty = sum(1 for s in sets if not s)
    h = m.model.embed(params, ds)
    case("probe value vs reference", O.check_probe(probe, empty, h, adjacency, nodes, W.TRAIN_KHOP),
         O.check_probe(probe + 1e-6, empty, h, adjacency, nodes, W.TRAIN_KHOP))
    case("probe empty-set count vs reference",
         O.check_probe(probe, empty, h, adjacency, nodes, W.TRAIN_KHOP),
         O.check_probe(probe, empty + 1, h, adjacency, nodes, W.TRAIN_KHOP))
    def probe_errors(value):
        errors = W.probe_check(m, params, ds, adjacency, value, rng(),
                               cfg.probe_sample_size, W.TRAIN_KHOP)
        return next((e for e in errors if e), None)

    case("workload probe check on the trace's last probe", probe_errors(probe),
         probe_errors(probe * 0.99))

    # NMI and AUC
    emb = m.model.embed(params, ds)
    pred = m.evaluate.kmeans_cluster(emb, 3, rng=np.random.default_rng(0))
    nmi = m.evaluate.nmi_ari(pred, ds.labels)[0]
    flipped = pred.copy()
    flipped[:5] = (flipped[:5] + 1) % 3
    case("nmi vs contingency table", O.check_nmi(nmi, pred, ds.labels),
         O.check_nmi(nmi, flipped, ds.labels))
    split = m.evaluate.make_edge_split(ds.graph, 0)
    mp = m.evaluate.train_graph_dataset(ds, split)
    auc, _ = m.evaluate.link_prediction_eval(params, mp, split)
    scores = m.evaluate.edge_scores(
        params, mp, np.concatenate([split.test_edges, split.test_negatives]))
    pos, neg = np.split(scores, [split.test_edges.shape[0]])
    worse = pos.copy()
    worse[np.argmax(worse)] = neg.min() - 1.0
    case("auc vs brute-force pair count", O.check_auc(auc, pos, neg),
         O.check_auc(auc, worse, neg))
    case("acceptance floor", O.check_at_least("probe_acc", 0.85, 0.85),
         O.check_at_least("probe_acc", 0.8499, 0.85))

    # checkpoint reload, dataset hash and trace file through the CLI
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        ckpt = str(Path(tmp) / "p.ckpt")
        m.model.save_checkpoint(params, ckpt)
        e1, e2 = m.model.embed(params, ds), m.model.embed(m.model.load_checkpoint(ckpt), ds)
        e3 = e2.copy()
        e3.view(np.uint32)[0, 0] ^= 1
        case("reloaded checkpoint embeds bit for bit", O.check_bitwise("embed", e2, e1),
             O.check_bitwise("embed", e3, e1))
        data, prefix = str(Path(tmp) / "d.txt"), str(Path(tmp) / "r")
        m.graph.save_dataset(ds, data)
        with contextlib.redirect_stdout(io.StringIO()):
            m.cli.main(["train", "--dataset", data, "--set", "d_hidden=16", "--set", "epochs=3",
                        "--set", "block_size=60", "--out-prefix", prefix])
        manifest = Path(prefix + ".manifest.json").read_text(encoding="utf-8")
        sha = O.sha256_file(data)
        with open(data, "a", encoding="utf-8") as fh:
            fh.write("\n")
        case("manifest dataset_sha256 vs file", None if f'"{sha}"' in manifest else "differs",
             None if f'"{O.sha256_file(data)}"' in manifest else "differs")
        lines = Path(prefix + ".trace.tsv").read_text(encoding="utf-8").splitlines()
        case("trace has one line per epoch", O.check_trace_epochs(lines, 3),
             O.check_trace_epochs(lines[:-1], 3))

    failures = results.count(False)
    print(f"{len(results) - failures}/{len(results)} checks pass on true values and "
          f"fail on wrong ones")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
