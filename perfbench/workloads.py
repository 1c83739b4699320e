"""The benchmark's workloads: how each builds its inputs, runs one round of
operations the way a user of `gcmae` would, and checks what came out.

A round is a fixed list of operations, so every round of a workload attempts
and fails the same operations whatever the seed and the run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as O

FEATURE_DIM, D_HIDDEN = 16, 64
TRAIN_KHOP = 5  # the k of the probe that train() runs
# `eval --task probe` takes --khop; at its default of 5 most draws on a 3x300
# graph of these densities find no 5-hop pair and the command exits 2
EVAL_KHOP = 3


@dataclass
class Round:
    train: tuple[float, float]         # (start, end) on the wall clock
    epochs: list[tuple[float, float]]  # every epoch trained, retrains included
    eval: tuple[float, float]
    quality: dict[str, float]
    final_loss: float
    attempted: int
    failed: int = 0
    artifacts: dict = field(default_factory=dict)

    def outcome(self) -> tuple:
        """What must repeat bit for bit from one round to the next."""
        return self.final_loss, tuple(sorted(self.quality.items()))


class Workload:
    min_rounds = 1

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods, self.seed, self.workdir = mods, seed, workdir
        self.hooks = None   # instrument.Hooks, installed after set-up
        self.tracer = None  # instrument.Tracer, during a traced round only

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> list[str]:
        raise NotImplementedError

    def _epochs(self) -> list[tuple[float, float]]:
        """Every epoch of every train() call of the round, retrains included."""
        return [e for run in self.hooks.epochs for e in run]


# ---------------------------------------------------------------------------
# checks shared by the workloads

def spmm_checks(mods, graph, adjacency: np.ndarray, seed: int) -> list[str]:
    """Forward and adjoint of spmm on the normalized operator (dense path up to
    1024 nodes, CSR above) and on the raw graph (always CSR)."""
    T = mods.tensor
    rng = np.random.default_rng([seed, 0x5B])
    x = rng.standard_normal((graph.num_nodes, D_HIDDEN)).astype(np.float32)
    w = rng.standard_normal((graph.num_nodes, D_HIDDEN)).astype(np.float32)
    normalized = mods.graph.normalize(graph)
    operator = O.gcn_operator(adjacency)
    errors = [O.check_close("normalize().to_dense()", normalized.to_dense(), operator,
                            rtol=1e-6, atol=1e-7)]
    for label, adj, op in (("normalized", normalized, operator), ("graph", graph, adjacency)):
        with T.Tape() as tape:
            xt = T.tensor(x, requires_grad=True)
            y = T.spmm(adj, xt)
            total = T.sum_all(T.elementwise_mul(y, T.constant(w)))
        grad = T.backward(tape, total)[xt].values
        errors.append(O.check_spmm(f"spmm[{label}] forward", y.values, op, x))
        errors.append(O.check_spmm(f"spmm[{label}] adjoint", grad, op.T, w))
    return errors


def objective_checks(mods, params, dataset, config, adjacency: np.ndarray,
                     seed: int) -> list[str]:
    """InfoNCE and adjacency MSE/BCE of the final parameters on a fresh view."""
    m = mods
    n = dataset.num_nodes
    mask_plan, drop_plan = m.augment.draw_plans(config, config.epochs, n)
    adj = m.graph.normalize(dataset.graph)
    drop_adj = m.graph.normalize(m.augment.drop_nodes(dataset.graph, drop_plan))
    x = m.tensor.tensor(dataset.features)
    out = m.model.forward(params, config, adj, drop_adj, x,
                          m.augment.mask_features(x, mask_plan), mask_plan.masked_nodes)
    infonce = m.losses.infonce_loss(out.u, out.v, config.tau).item()
    block = np.sort(np.random.default_rng([seed, 0xB1]).choice(
        n, size=min(n, config.block_size), replace=False))
    recon = m.losses.adj_recon_losses(out.z, dataset.graph, block)
    return [O.check_infonce(infonce, out.u.values, out.v.values, config.tau),
            O.check_adjacency(recon.mse.item(), recon.bce.item(), out.z.values,
                              adjacency, block)]


def probe_check(mods, params, dataset, adjacency: np.ndarray, got, rng,
                sample_size: int, k: int) -> list[str]:
    """Replays the probe's node draw, then checks the program's k-hop sets and
    probe value against a search over the dense adjacency."""
    n = dataset.num_nodes
    nodes = rng.choice(n, size=min(sample_size, n), replace=False)
    sets = [mods.graph.khop_neighbors(dataset.graph, int(v), k) for v in nodes]
    h = mods.model.embed(params, dataset)
    return [O.check_khop_sets(sets, adjacency, nodes, k),
            O.check_probe(got, sum(1 for s in sets if not s), h, adjacency, nodes, k)]


def auc_check(mods, params, dataset, split, auc: float) -> str | None:
    pairs = np.concatenate([split.test_edges, split.test_negatives])
    scores = mods.evaluate.edge_scores(params, dataset, pairs)
    pos, neg = np.split(scores, [split.test_edges.shape[0]])
    return O.check_auc(auc, pos, neg)


def graph_adjacency(dataset) -> np.ndarray:
    g = dataset.graph
    return O.dense_adjacency(g.num_nodes, g.row_offsets, g.col_indices)


# ---------------------------------------------------------------------------
# in-process training on a generated SBM

class SbmWorkload(Workload):
    """`train` in-process, then `embed`, `linear_probe`, `kmeans_cluster` and a
    link-prediction retrain on the train-edge graph of an edge split."""

    def __init__(self, mods, seed, workdir, *, per_block: int, p_in: float,
                 p_out: float, pinned_seed: int | None, epochs: int, probe_every: int,
                 floors: dict[str, float] | None = None, min_rounds: int = 1):
        super().__init__(mods, seed, workdir)
        self.min_rounds = min_rounds
        self.per_block, self.p_in, self.p_out = per_block, p_in, p_out
        # a pinned workload keeps its graph and edge split; the seed then
        # varies only the training and k-means draws
        self.graph_seed = seed if pinned_seed is None else pinned_seed
        self.epochs, self.probe_every = epochs, probe_every
        self.floors = floors or {}

    def make_inputs(self) -> None:
        g = self.mods.graph
        self.dataset = g.generate_sbm(g.SbmSpec(
            blocks=3, nodes_per_block=self.per_block, p_in=self.p_in, p_out=self.p_out,
            feature_dim=FEATURE_DIM, seed=self.graph_seed))
        self.config = self.mods.config.TrainConfig(
            epochs=self.epochs, d_hidden=D_HIDDEN, seed=self.seed,
            probe_every=self.probe_every).validate()

    def run_round(self) -> Round:
        m, ds, cfg = self.mods, self.dataset, self.config
        self.hooks.reset()
        started = time.perf_counter()
        params, trace = m.training.train(ds, cfg)
        trained = time.perf_counter()

        emb = m.model.embed(params, ds)
        acc = m.evaluate.linear_probe(emb, ds.labels, ds.split)
        pred = m.evaluate.kmeans_cluster(emb, ds.num_classes,
                                         rng=np.random.default_rng(self.seed))
        nmi = m.evaluate.nmi_ari(pred, ds.labels)[0]
        split = m.evaluate.make_edge_split(ds.graph, self.graph_seed)
        mp = m.evaluate.train_graph_dataset(ds, split)
        lp_params, _ = m.training.train(mp, cfg)
        auc, _ = m.evaluate.link_prediction_eval(lp_params, mp, split)
        evaluated = time.perf_counter()

        return Round(
            train=(started, trained), epochs=self._epochs(), eval=(trained, evaluated),
            quality={"probe_acc": acc, "cluster_nmi": nmi, "linkpred_auc": auc},
            final_loss=trace.entries[-1].breakdown.total, attempted=5,
            artifacts={"params": params, "trace": trace, "pred": pred,
                       "lp_params": lp_params, "mp": mp, "split": split})

    def check(self, rnd: Round) -> list[str]:
        m, ds, cfg, art = self.mods, self.dataset, self.config, rnd.artifacts
        adjacency = graph_adjacency(ds)
        rows = [(e.epoch, b.sce, b.contrastive, b.mse, b.bce, b.dist, b.variance, b.total)
                for e in art["trace"].entries for b in [e.breakdown]]
        errors = [O.check_trace_totals(rows, cfg.alpha, cfg.lambda_, cfg.mu)]
        errors += spmm_checks(m, ds.graph, adjacency, self.seed)
        errors += objective_checks(m, art["params"], ds, cfg, adjacency, self.seed)
        probed = [e for e in art["trace"].entries if e.probe is not None]
        if cfg.probe_every and cfg.epochs % cfg.probe_every == 0:
            # the last epoch probes the final parameters
            last = cfg.epochs - 1
            rng = np.random.default_rng(np.random.SeedSequence(
                [cfg.seed, last, m.training._PROBE_STREAM]))
            errors += probe_check(m, art["params"], ds, adjacency,
                                  art["trace"].entries[last].probe, rng,
                                  cfg.probe_sample_size, TRAIN_KHOP)
        elif not cfg.probe_every and probed:
            errors.append(f"probe ran on {len(probed)} epochs with probe_every=0")
        errors.append(O.check_nmi(rnd.quality["cluster_nmi"], art["pred"], ds.labels))
        errors.append(auc_check(m, art["lp_params"], art["mp"], art["split"],
                                rnd.quality["linkpred_auc"]))
        for name, floor in self.floors.items():
            errors.append(O.check_at_least(name, rnd.quality[name], floor))
        return [e for e in errors if e]


# ---------------------------------------------------------------------------
# the file-based user path through gcmae.cli.main

# A valid four-node dataset; each malformed copy swaps one token for a word.
_BASE_DATASET = """NODES 4 2
0: 1.0 0.0
1: 0.9 0.1
2: 0.0 1.0
3: 0.1 0.9
EDGES 2
0 1
2 3
UNDIRECTED
LABELS
0 0
1 0
2 1
3 1
"""
MALFORMED = {
    "feature-value": ("1: 0.9 0.1\n", "1: 0.9 x\n"),
    "edge-count": ("EDGES 2\n", "EDGES two\n"),
    "edge-endpoint": ("2 3\n", "2 y\n"),
    "label": ("3 1\n", "3 z\n"),
}
EVAL_TASKS = ("classify", "cluster", "probe", "pca", "linkpred")


class CliWorkload(Workload):
    """generate, train to a checkpoint, eval every task, and train on each
    malformed dataset, all through `gcmae.cli.main` in this process."""

    def __init__(self, mods, seed, workdir, *, per_block: int, p_in: float,
                 p_out: float, epochs: int):
        super().__init__(mods, seed, workdir)
        self.per_block, self.p_in, self.p_out, self.epochs = per_block, p_in, p_out, epochs
        self.dataset_path = str(workdir / "sbm.txt")
        self.config_path = str(workdir / "config.txt")
        self.prefix = str(workdir / "run")
        self.messages: dict[str, str] = {}

    def cli(self, argv: list[str], span: str | None = None) -> tuple[int, str]:
        """Runs one command; returns its exit code and what it wrote to stderr."""
        err = io.StringIO()
        with (self.span(span) if span else contextlib.nullcontext()), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.mods.cli.main(argv)
        return code, err.getvalue()

    def _valid(self, argv: list[str], span: str) -> None:
        code, err = self.cli(argv, span)
        if code != 0:
            raise RuntimeError(f"gcmae {' '.join(argv)} exited {code}: {err.strip()}")

    def make_inputs(self) -> None:
        self._valid(["generate", "--blocks", "3", "--per-block", str(self.per_block),
                     "--p-in", str(self.p_in), "--p-out", str(self.p_out),
                     "--feature-dim", str(FEATURE_DIM), "--seed", str(self.seed),
                     "--out", self.dataset_path], "cli.generate")
        Path(self.config_path).write_text(
            f"d_hidden={D_HIDDEN}\nepochs={self.epochs}\nseed={self.seed}\n", encoding="utf-8")
        self.malformed = {}
        for label, (good, bad) in MALFORMED.items():
            path = self.workdir / f"malformed-{label}.txt"
            path.write_text(_BASE_DATASET.replace(good, bad), encoding="utf-8")
            self.malformed[label] = str(path)

    def _eval_argv(self, task: str) -> list[str]:
        seeds = str(self.seed) if task == "linkpred" else "0,1,2,3,4"
        return ["eval", "--checkpoint", self.prefix + ".ckpt", "--dataset", self.dataset_path,
                "--config", self.config_path, "--task", task, "--seeds", seeds,
                "--khop", str(EVAL_KHOP), "--out", str(self.workdir / f"eval-{task}.json")]

    def _malformed_ok(self, label: str, path: str) -> bool:
        """Exit 2 with a one-line message is the documented answer to bad data."""
        try:
            code, err = self.cli(["train", "--dataset", path, "--config", self.config_path,
                                  "--out-prefix", str(self.workdir / "malformed")])
        except Exception as exc:  # the fault under test escapes cli.main
            self.messages[label] = f"raised {type(exc).__name__}: {exc}"
            return False
        lines = err.strip().splitlines()
        self.messages[label] = f"exit {code}: {err.strip()!r}"
        return code == 2 and len(lines) == 1

    def run_round(self) -> Round:
        self.hooks.reset()
        started = time.perf_counter()
        self._valid(["train", "--dataset", self.dataset_path, "--config", self.config_path,
                     "--out-prefix", self.prefix], "cli.train")
        trained = time.perf_counter()

        results = {}
        for task in EVAL_TASKS:
            self._valid(self._eval_argv(task), f"cli.eval.{task}")
            results[task] = json.loads(
                (self.workdir / f"eval-{task}.json").read_text(encoding="utf-8"))
        evaluated = time.perf_counter()
        failed = sum(not self._malformed_ok(label, path)
                     for label, path in self.malformed.items())

        trace_lines = Path(self.prefix + ".trace.tsv").read_text(encoding="utf-8").splitlines()
        agg = {task: results[task]["aggregate"] for task in results}
        return Round(
            train=(started, trained), epochs=self._epochs(), eval=(trained, evaluated),
            quality={"probe_acc": agg["classify"]["accuracy"]["mean"],
                     "cluster_nmi": agg["cluster"]["nmi"]["mean"],
                     "linkpred_auc": agg["linkpred"]["auc"]["mean"]},
            final_loss=float(trace_lines[-1].split("\t")[7]),
            attempted=1 + len(EVAL_TASKS) + len(self.malformed), failed=failed,
            artifacts={"results": results, "trace_lines": trace_lines,
                       "calls": {k: list(v) for k, v in self.hooks.calls.items()}})

    def check(self, rnd: Round) -> list[str]:
        m, art = self.mods, rnd.artifacts
        cfg = m.config.parse_config(Path(self.config_path).read_text(encoding="utf-8"))
        ds = m.graph.load_dataset(self.dataset_path)
        adjacency = graph_adjacency(ds)
        sha = O.sha256_file(self.dataset_path)
        errors = []
        for manifest in [self.prefix + ".manifest.json"] + [
                str(self.workdir / f"eval-{t}.json.manifest.json") for t in EVAL_TASKS]:
            if json.loads(Path(manifest).read_text(encoding="utf-8"))["dataset_sha256"] != sha:
                errors.append(f"{manifest}: dataset_sha256 differs from the dataset file")

        lines = art["trace_lines"]
        errors.append(O.check_trace_epochs(lines, cfg.epochs))
        rows = [[int(p[0])] + [float(v) for v in p[1:8]] for p in (ln.split("\t") for ln in lines)]
        errors.append(O.check_trace_totals(rows, cfg.alpha, cfg.lambda_, cfg.mu))

        trained = art["calls"]["train"][0][1][0]
        loaded = m.model.load_checkpoint(self.prefix + ".ckpt")
        errors.append(O.check_bitwise("embed of the reloaded checkpoint",
                                      m.model.embed(loaded, ds), m.model.embed(trained, ds)))
        errors += spmm_checks(m, ds.graph, adjacency, self.seed)
        errors += objective_checks(m, loaded, ds, cfg, adjacency, self.seed)

        for row in art["results"]["probe"]["per_seed"]:
            rng = np.random.default_rng(np.random.SeedSequence([row["seed"], 0x9B]))
            errors += probe_check(m, loaded, ds, adjacency, row["similarity"], rng,
                                  sample_size=64, k=EVAL_KHOP)
        nmi_calls = art["calls"]["nmi_ari"]
        for row, (args, _) in zip(art["results"]["cluster"]["per_seed"], nmi_calls):
            errors.append(O.check_nmi(row["nmi"], args[0], args[1]))
        if len(nmi_calls) != 5:
            errors.append(f"cluster eval computed NMI {len(nmi_calls)} times, expected 5")
        (lp_args, _), = art["calls"]["link_prediction_eval"]
        errors.append(auc_check(m, *lp_args, art["results"]["linkpred"]["per_seed"][0]["auc"]))
        return [e for e in errors if e]


def make(name: str, mods, seed: int, workdir: Path) -> Workload:
    if name == "pinned-3x100":
        return SbmWorkload(mods, seed, workdir, per_block=100, p_in=0.1, p_out=0.01,
                           pinned_seed=0, epochs=300, probe_every=10,
                           floors={"probe_acc": 0.85, "cluster_nmi": 0.5})
    if name == "scale-3x1000":
        # two rounds even when the machine is slow: 12 epochs, not 6
        return SbmWorkload(mods, seed, workdir, per_block=1000, p_in=0.01, p_out=0.001,
                           pinned_seed=None, epochs=3, probe_every=0, min_rounds=2)
    if name == "cli-3x300":
        return CliWorkload(mods, seed, workdir, per_block=300, p_in=0.04, p_out=0.004,
                           epochs=40)
    raise KeyError(name)


WORKLOADS = ("pinned-3x100", "scale-3x1000", "cli-3x300")
