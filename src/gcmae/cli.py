"""Command-line surface: dataset generation, training, evaluation, ablations.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numeric
failure. Every command writes a run manifest listing its artifact files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import (ConfigError, TrainConfig, apply_overrides, config_hash,
                     parse_config, serialize_config)
from .evaluate import (EvalError, aggregate_metrics, kmeans_cluster,
                       linear_probe, link_prediction_eval, make_edge_split,
                       nmi_ari, pca_2d, train_graph_dataset)
from .graph import DataError, SbmSpec, generate_sbm, load_dataset, save_dataset
from .losses import LossError
from .model import CheckpointError, check_shapes, embed, init_params, load_checkpoint
from .tensor import ShapeError
from .training import (NumericError, ProbeError, save_checkpoint,
                    similarity_probe, train)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

TASKS = ("classify", "linkpred", "cluster", "probe", "pca")
ABLATION_ROWS = ("full", "no_contrastive", "no_structure", "no_variance",
                 "mae_only", "contrastive_only", "fusion")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(path: str, command: str, cfg: TrainConfig | None,
                    dataset_path: str | None, outputs: list[str],
                    started: str) -> None:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "version": __version__,
        "started_at": started,
        "finished_at": _now(),
        "outputs": outputs,
    }
    if cfg is not None:
        manifest["config"] = serialize_config(cfg)
        manifest["config_hash"] = config_hash(cfg)
    if dataset_path is not None:
        manifest["dataset"] = dataset_path
        manifest["dataset_sha256"] = _sha256(dataset_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(args) -> TrainConfig:
    cfg = TrainConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    if getattr(args, "set", None):
        cfg = apply_overrides(cfg, args.set)
    return cfg.validate()


def cmd_generate(args) -> int:
    started = _now()
    spec = SbmSpec(blocks=args.blocks, nodes_per_block=args.per_block,
                   p_in=args.p_in, p_out=args.p_out, feature_dim=args.feature_dim,
                   feature_separation=args.separation, noise_sigma=args.noise,
                   seed=args.seed)
    dataset = generate_sbm(spec)
    save_dataset(dataset, args.out)
    _write_manifest(args.out + ".manifest.json", "generate", None, args.out,
                    [args.out], started)
    print(f"nodes={dataset.num_nodes} arcs={dataset.graph.num_arcs} "
          f"blocks={spec.blocks} -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = _now()
    cfg = _load_config(args)
    dataset = load_dataset(args.dataset)
    checkpoint_path = args.out_prefix + ".ckpt"
    trace_path = args.out_prefix + ".trace.tsv"
    manifest_path = args.out_prefix + ".manifest.json"
    outputs = [checkpoint_path, trace_path]
    wall = time.perf_counter()
    try:
        params, trace = train(dataset, cfg)
        save_checkpoint(params, checkpoint_path)
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(trace.serialize())
    except BaseException:
        import os
        for path in outputs:  # no partial artifacts on abort
            if os.path.exists(path):
                os.unlink(path)
        raise
    _write_manifest(manifest_path, "train", cfg, args.dataset,
                    outputs + [manifest_path], started)
    total = sum(e.seconds for e in trace.entries)
    final = trace.entries[-1].breakdown.total if trace.entries else float("nan")
    print(f"trained {cfg.epochs} epochs in {time.perf_counter() - wall:.1f}s "
          f"(loop {total:.1f}s), final loss {final:.6f}")
    print(f"checkpoint: {checkpoint_path}")
    print(f"trace: {trace_path}")
    return EXIT_OK


def _load_checkpoint_consistent(args, cfg: TrainConfig, dataset):
    params = load_checkpoint(args.checkpoint)
    expected = config_hash(cfg)
    if params.config_hash and params.config_hash != expected:
        raise DataError(
            f"checkpoint config hash {params.config_hash} != config {expected}")
    check_shapes(params, init_params(cfg, dataset.feature_dim))
    return params


def cmd_eval(args) -> int:
    started = _now()
    cfg = _load_config(args)
    dataset = load_dataset(args.dataset)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ConfigError("at least one seed required")
    params = _load_checkpoint_consistent(args, cfg, dataset)
    outputs = [args.out]
    per_seed = []

    if args.task == "classify":
        if dataset.labels is None:
            raise DataError("classify task needs labels")
        emb = embed(params, dataset)
        for seed in seeds:  # the probe itself is deterministic
            acc = linear_probe(emb, dataset.labels, dataset.split)
            per_seed.append({"seed": seed, "accuracy": acc})
    elif args.task == "linkpred":
        for seed in seeds:
            split = make_edge_split(dataset.graph, seed)
            mp_dataset = train_graph_dataset(dataset, split)
            lp_params, _ = train(mp_dataset, cfg.with_overrides(seed=seed, probe_every=0))
            auc, ap = link_prediction_eval(lp_params, mp_dataset, split)
            per_seed.append({"seed": seed, "auc": auc, "ap": ap})
    elif args.task == "cluster":
        if dataset.labels is None:
            raise DataError("cluster task needs labels")
        emb = embed(params, dataset)
        for seed in seeds:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
            pred = kmeans_cluster(emb, dataset.num_classes, rng=rng)
            nmi, ari = nmi_ari(pred, dataset.labels)
            per_seed.append({"seed": seed, "nmi": nmi, "ari": ari})
    elif args.task == "probe":
        for seed in seeds:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9B]))
            value = similarity_probe(params, dataset, args.probe_sample, k=args.khop,
                                     rng=rng)
            per_seed.append({"seed": seed, "similarity": value})
    elif args.task == "pca":
        coords = pca_2d(embed(params, dataset))
        csv_path = args.out.rsplit(".", 1)[0] + ".csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("node,x,y,label\n")
            for i in range(dataset.num_nodes):
                label = int(dataset.labels[i]) if dataset.labels is not None else -1
                fh.write(f"{i},{coords[i, 0]!r},{coords[i, 1]!r},{label}\n")
        outputs.append(csv_path)
        var1, var2 = coords.var(axis=0).tolist()
        for seed in seeds:
            per_seed.append({"seed": seed, "var_dim1": var1, "var_dim2": var2})

    result = {
        "task": args.task,
        "config_hash": config_hash(cfg),
        "dataset": args.dataset,
        "seeds": seeds,
        "per_seed": per_seed,
        "aggregate": aggregate_metrics(per_seed),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out + ".manifest.json", "eval", cfg, args.dataset,
                    outputs + [args.out + ".manifest.json"], started)
    for key, stat in result["aggregate"].items():
        print(f"{args.task} {key}: {stat['mean']:.4f} +- {stat['std']:.4f}")
    return EXIT_OK


def _ablation_config(base: TrainConfig, variant: str) -> TrainConfig:
    if variant == "full":
        return base
    if variant == "no_contrastive":
        return base.with_overrides(alpha=0.0)
    if variant == "no_structure":
        return base.with_overrides(lambda_=0.0)
    if variant == "no_variance":
        return base.with_overrides(mu=0.0)
    if variant == "mae_only":
        return base.with_overrides(encoder_mode="mae_only", alpha=0.0)
    if variant == "contrastive_only":
        return base.with_overrides(encoder_mode="contrastive_only", lambda_=0.0)
    if variant == "fusion":
        return base.with_overrides(encoder_mode="fusion")
    raise ConfigError(f"unknown ablation variant {variant!r}")


def cmd_ablate(args) -> int:
    started = _now()
    base = _load_config(args)
    dataset = load_dataset(args.dataset)
    if dataset.labels is None:
        raise DataError("ablation table needs labels")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    lines = ["variant\tconfig_hash\tmean_accuracy\tstd_accuracy\tseed_accuracies"]
    for variant in ABLATION_ROWS:
        row_cfg = _ablation_config(base, variant)
        accs = []
        for seed in seeds:
            params, _ = train(dataset, row_cfg.with_overrides(seed=seed, probe_every=0))
            accs.append(linear_probe(embed(params, dataset), dataset.labels,
                                     dataset.split))
        accs_arr = np.array(accs)
        lines.append("\t".join([
            variant, config_hash(row_cfg),
            repr(float(accs_arr.mean())), repr(float(accs_arr.std())),
            " ".join(repr(a) for a in accs),
        ]))
        print(f"{variant}: {accs_arr.mean():.4f} +- {accs_arr.std():.4f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(args.out + ".manifest.json", "ablate", base, args.dataset,
                    [args.out, args.out + ".manifest.json"], started)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gcmae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic SBM dataset")
    g.add_argument("--blocks", type=int, required=True)
    g.add_argument("--per-block", type=int, required=True)
    g.add_argument("--p-in", type=float, required=True)
    g.add_argument("--p-out", type=float, required=True)
    g.add_argument("--feature-dim", type=int, default=16)
    g.add_argument("--separation", type=float, default=1.0)
    g.add_argument("--noise", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train on a dataset file")
    t.add_argument("--dataset", required=True)
    t.add_argument("--config", help="key=value config file")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    t.add_argument("--out-prefix", default="run",
                   help="prefix for .ckpt/.trace.tsv/.manifest.json outputs")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--config", help="config used at training time")
    e.add_argument("--set", action="append", metavar="KEY=VALUE")
    e.add_argument("--task", choices=TASKS, required=True)
    e.add_argument("--seeds", default="0,1,2,3,4")
    e.add_argument("--khop", type=int, default=5)
    e.add_argument("--probe-sample", type=int, default=64)
    e.add_argument("--out", required=True, help="metrics JSON path")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="loss-weight and encoder-mode ablation table")
    a.add_argument("--dataset", required=True)
    a.add_argument("--config")
    a.add_argument("--set", action="append", metavar="KEY=VALUE")
    a.add_argument("--seeds", default="0,1,2,3,4")
    a.add_argument("--out", required=True, help="TSV table path")
    a.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LossError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, EvalError, ShapeError, ProbeError,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
