"""Run one workload of the gcmae benchmark and print its metrics.

    python3 perfbench/run.py --workload pinned-3x100 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics; `--trace 1` reports the per-layer metrics of one traced round, next
to one untraced round for the overhead. Per-round details go to stderr.
"""

from __future__ import annotations

import os

# One BLAS thread: timings then do not depend on what else shares the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("config", "graph", "tensor", "augment", "model", "losses", "training",
           "evaluate", "cli")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s", "train_s": "s", "epoch_ms_p50": "ms", "epoch_ms_p95": "ms",
    "eval_s": "s", "peak_rss_mb": "MB", "probe_acc": "fraction",
    "cluster_nmi": "fraction", "linkpred_auc": "fraction",
}
PER_LAYER = {
    "training.train.ms": "ms",
    "training.similarity_probe.ms": "ms",
    "training.similarity_probe.calls": "count",
    "training.similarity_probe.failed": "count",
    "training.adam_step.ms": "ms",
    "graph.khop_neighbors.ms": "ms",
    "graph.khop_neighbors.calls": "count",
    "graph.khop_neighbors.nonempty": "count",
    "graph.normalize.ms": "ms",
    "graph.normalize.calls": "count",
    "graph.load_dataset.ms": "ms",
    "graph.save_dataset.ms": "ms",
    "graph.generate_sbm.ms": "ms",
    "losses.infonce_loss.ms": "ms",
    "losses.infonce_loss.peak_mb": "MB",
    "losses.adj_recon_losses.ms": "ms",
    "losses.sce_loss.ms": "ms",
    "losses.variance_loss.ms": "ms",
    "losses.total_loss.ms": "ms",
    "tensor.backward.ms": "ms",
    "tensor.backward.peak_mb": "MB",
    "tensor.spmm.ms": "ms",
    "tensor.spmm.calls": "count",
    "tensor.matmul.ms": "ms",
    "augment.draw_plans.ms": "ms",
    "augment.drop_nodes.ms": "ms",
    "augment.mask_features.ms": "ms",
    "model.forward.ms": "ms",
    "model.embed.ms": "ms",
    "model.save_checkpoint.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "evaluate.linear_probe.ms": "ms",
    "evaluate.linear_probe.calls": "count",
    "evaluate.kmeans_cluster.ms": "ms",
    "evaluate.pca_2d.ms": "ms",
    "evaluate.make_edge_split.ms": "ms",
    "evaluate.link_prediction_eval.ms": "ms",
    "cli.generate.ms": "ms",
    "cli.train.ms": "ms",
    "cli.eval.classify.ms": "ms",
    "cli.eval.cluster.ms": "ms",
    "cli.eval.probe.ms": "ms",
    "cli.eval.pca.ms": "ms",
    "cli.eval.linkpred.ms": "ms",
    "trace.overhead_pct": "%",
}


def import_program() -> SimpleNamespace:
    """Imports every gcmae module afresh, so each set-up pays the imports."""
    for name in [k for k in sys.modules if k == "gcmae" or k.startswith("gcmae.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"gcmae.{n}") for n in MODULES})
    if not Path(mods.graph.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gcmae was imported from {mods.graph.__file__}, not from {SRC}")
    return mods


def set_up(workload: str, seed: int, workdir: Path, calibrator):
    """Imports and input generation, SETUP_REPEATS times; keeps the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        calibrator.sample()
        started = time.perf_counter()
        mods = import_program()
        wl = workloads.make(workload, mods, seed, workdir)
        wl.make_inputs()
        times.append((started, time.perf_counter()))
    return mods, wl, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(rnd) -> str:
    quality = " ".join(f"{k}={v:.4f}" for k, v in rnd.quality.items())
    return (f"wall: train {rnd.train[1] - rnd.train[0]:.3f} s, "
            f"eval {rnd.eval[1] - rnd.eval[0]:.3f} s, {len(rnd.epochs)} epochs; "
            f"final_loss={rnd.final_loss!r} {quality} failed={rnd.failed}/{rnd.attempted}")


def check_all(wl, rounds) -> list[str]:
    errors = wl.check(rounds[-1])
    if any(r.outcome() != rounds[0].outcome() for r in rounds[1:]):
        errors.append("rounds of the same inputs gave different losses or metrics")
    return errors


def measure(wl, seconds: float, setup: list, calibrator):
    """Whole rounds until the next one would end past `seconds`, and at least
    the workload's `min_rounds`.

    Each time is scaled to the calibrator's reference machine speed by the
    samples taken around it."""
    rounds = []
    started = time.perf_counter()
    while True:
        calibrator.sample()
        rounds.append(wl.run_round())
        print(f"round {len(rounds)}: {describe(rounds[-1])}", file=sys.stderr)
        elapsed = time.perf_counter() - started
        if len(rounds) >= wl.min_rounds and elapsed + elapsed / len(rounds) > seconds:
            break
    calibrator.sample()
    peak = peak_rss_mb()  # before the checks, which allocate references of their own

    scaled = calibrator.scaled
    epochs_ms = [1e3 * scaled(*epoch) for r in rounds for epoch in r.epochs]
    kernel = [b - a for a, b in calibrator.samples]
    print(f"calibration: {len(kernel)} samples, median {statistics.median(kernel):.5f} s, "
          f"quartiles {' '.join(f'{q:.5f}' for q in statistics.quantiles(kernel, n=4))}",
          file=sys.stderr)
    last = rounds[-1].quality
    metrics = {
        "setup_s": statistics.median(scaled(*iv) for iv in setup),
        "train_s": statistics.median(scaled(*r.train) for r in rounds),
        "epoch_ms_p50": statistics.median(epochs_ms),
        "epoch_ms_p95": float(np.percentile(epochs_ms, 95)),
        "eval_s": statistics.median(scaled(*r.eval) for r in rounds),
        "peak_rss_mb": peak,
        "probe_acc": last["probe_acc"],
        "cluster_nmi": last["cluster_nmi"],
        "linkpred_auc": last["linkpred_auc"],
    }
    return rounds, metrics, END_TO_END


def traced(wl, mods, calibrator, spans_path: Path):
    """One untraced round, then inputs and one round under the tracer.

    Both rounds calibrate, so the overhead compares times at one speed; in the
    traced round each calibration sample is a span of its own, which keeps it
    out of its parent's self time."""
    calibrator.sample()
    started = time.perf_counter()
    plain = wl.run_round()
    plain_at = (started, time.perf_counter())
    print(f"untraced round: {describe(plain)}", file=sys.stderr)

    tracer = instrument.Tracer(mods)
    tracer.install()
    wl.tracer = tracer
    sample = calibrator.sample

    def sample_in_span():
        with tracer.span("calibrate"):
            sample()

    calibrator.sample = sample_in_span
    try:
        wl.make_inputs()
        calibrator.sample()
        started = time.perf_counter()
        rnd = wl.run_round()
        traced_at = (started, time.perf_counter())
        calibrator.sample()
    finally:
        tracer.uninstall()
        wl.tracer = None
        calibrator.sample = sample
    plain_s, traced_s = calibrator.scaled(*plain_at), calibrator.scaled(*traced_at)
    print(f"traced round: {describe(rnd)}", file=sys.stderr)
    tracer.write(str(spans_path))

    self_ms, calls, failed = tracer.summary()
    metrics = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        metrics[name] = {
            "ms": lambda: self_ms.get(span, 0.0),
            "calls": lambda: calls[span],
            "failed": lambda: failed[span],
            "nonempty": lambda: tracer.nonempty_khop,
            "peak_mb": lambda: tracer.peak_bytes[span] / 2 ** 20,
            "overhead_pct": lambda: 100.0 * (traced_s - plain_s) / plain_s,
        }[kind]()
    return [plain, rnd], metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gcmae" / "__init__.py").is_file():
        print(f"run.py: no program at {SRC / 'gcmae'}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        calibrator = instrument.Calibrator()
        mods, wl, setup = set_up(args.workload, args.seed, workdir, calibrator)
        print(f"set-up wall: {' '.join(f'{b - a:.4f}' for a, b in setup)} s", file=sys.stderr)
        wl.hooks = instrument.Hooks(mods, calibrator)
        wl.hooks.install()
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            rounds, values, units = traced(wl, mods, calibrator, spans)
        else:
            rounds, values, units = measure(wl, args.seconds, setup, calibrator)
        errors = check_all(wl, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, message in getattr(wl, "messages", {}).items():
        print(f"malformed {label}: {message}", file=sys.stderr)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"checks: {'all passed' if not errors else f'{len(errors)} failed'}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
