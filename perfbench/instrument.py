"""Spans and hooks around the public functions of `gcmae`, installed from
outside, and the calibration kernel that scales the benchmark's times.

A function is replaced in every `gcmae` module namespace that holds it under
its own name. So a caller that imported the name (`training` does
`from .losses import infonce_loss`) and a caller that looks it up on its
module (`model` calls `T.spmm`) both reach the wrapper. Nothing under `src/`
changes; `uninstall` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# module -> public functions whose calls are timed in a traced run
TRACED = {
    "graph": ("normalize", "khop_neighbors", "load_dataset", "save_dataset",
              "generate_sbm"),
    "augment": ("draw_plans", "drop_nodes", "mask_features"),
    "tensor": ("spmm", "matmul", "backward"),
    "losses": ("sce_loss", "infonce_loss", "adj_recon_losses", "variance_loss",
               "total_loss"),
    "model": ("forward", "embed", "save_checkpoint", "load_checkpoint"),
    "training": ("train", "adam_step", "similarity_probe"),
    "evaluate": ("linear_probe", "kmeans_cluster", "pca_2d", "make_edge_split",
                 "link_prediction_eval"),
}
# spans whose peak of newly allocated memory is taken with tracemalloc, on
# every MEMORY_EVERY-th call starting with the first: tracemalloc slows each
# allocation, and on every call it added ~20% to the 3x100 round, nearly all
# of it inside backward. Every epoch allocates the same shapes.
MEMORY_SPANS = ("losses.infonce_loss", "tensor.backward")
MEMORY_EVERY = 50


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gcmae" or name.startswith("gcmae."))]


class Patcher:
    """Replaces functions by name in every gcmae namespace; undone by restore()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, func_name: str, value) -> None:
        self._saved.append((module, func_name, module.__dict__[func_name]))
        setattr(module, func_name, value)

    def replace(self, func_name: str, original, make_wrapper) -> None:
        """Wrap each binding of `func_name` that is `original` or wraps it."""
        for module in _namespaces():
            current = module.__dict__.get(func_name)
            if current is None:
                continue
            if current is not original and getattr(current, "__wrapped__", None) is not original:
                continue
            self.set(module, func_name, make_wrapper(current))

    def restore(self) -> None:
        for module, func_name, current in reversed(self._saved):
            setattr(module, func_name, current)
        self._saved.clear()


class Calibrator:
    """Times a fixed kernel of interpreter, BLAS and memory-bound work, and
    scales measured intervals to the speed at which the kernel takes
    REFERENCE_S.

    On a shared 2-core virtual machine the speed swung by 20 to 50% over
    minutes, and the kernel's time swung with it: over six minutes of
    interleaved samples a 20-epoch 3x100 training moved from 0.72 to 1.10 s
    while its ratio to the kernel stayed within 18.0-21.4.
    """

    REFERENCE_S = 0.04  # about the kernel's time on a quiet 2-core machine
    EVERY_S = 1.0       # spacing of the samples taken between epochs
    NEAREST = 3         # samples that set the speed of a stretch of work

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((300, 64))
        self._square = rng.standard_normal((600, 600))
        self.samples: list[tuple[float, float]] = []  # (start, end) on the wall clock

    def sample(self) -> None:
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i & 7
        for _ in range(60):
            self._small @ self._small.T
        for _ in range(20):
            np.exp(self._square).sum()
        self.samples.append((started, time.perf_counter()))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= self.EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of work in [start, end] at the reference speed.

        The samples inside the interval cut it into stretches of work; each
        stretch is scaled by the NEAREST samples around it, and the samples'
        own time is left out."""
        cuts = [t for s in self.samples if start <= s[0] and s[1] <= end for t in s]
        edges = [start] + cuts + [end]
        return sum((b - a) * self._scale(a, b) for a, b in zip(edges[::2], edges[1::2]))

    def _scale(self, start: float, end: float) -> float:
        def distance(s):
            return max(start - s[1], s[0] - end, 0.0)
        nearest = sorted(self.samples, key=distance)[:self.NEAREST]
        return self.REFERENCE_S / statistics.median(b - a for a, b in nearest)


class Hooks:
    """Hooks every run keeps installed: the benchmark's own epoch clock, with
    calibration samples between epochs, and the arguments and results of the
    calls the checks redo."""

    def __init__(self, mods, calibrator: Calibrator):
        self.mods = mods
        self.calibrator = calibrator
        self.patcher = Patcher()
        self.epochs: list[list[tuple[float, float]]] = []  # per train(), (start, end)
        self.calls: dict[str, list] = defaultdict(list)  # name -> [(args, result)]
        self._starts: list[float] | None = None
        self._ends: list[float] = []

    def install(self) -> None:
        training, cli = self.mods.training, self.mods.cli
        draw_plans, train = training.draw_plans, training.train

        # draw_plans opens every epoch of train(), so an epoch runs from one
        # call to the next, and the last one to the return of train();
        # calibration samples fall between epochs
        @functools.wraps(draw_plans)
        def clocked_draw_plans(*args, **kwargs):
            if self._starts is not None:
                if self._starts:
                    self._ends.append(time.perf_counter())
                self.calibrator.sample_if_due()
                self._starts.append(time.perf_counter())
            return draw_plans(*args, **kwargs)

        @functools.wraps(train)
        def clocked_train(*args, **kwargs):
            self._starts, self._ends = [], []
            try:
                out = train(*args, **kwargs)
                self._ends.append(time.perf_counter())
            finally:
                starts, self._starts = self._starts, None
            self.epochs.append(list(zip(starts, self._ends)))
            self.calls["train"].append((args, out))
            return out

        self.patcher.set(training, "draw_plans", clocked_draw_plans)
        for module in (training, cli):
            self.patcher.set(module, "train", clocked_train)
        for name in ("link_prediction_eval", "nmi_ari"):
            self.patcher.set(cli, name, self._capturing(name, getattr(cli, name)))

    def _capturing(self, name, fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls[name].append((args, out))
            return out
        return inner

    def reset(self) -> None:
        self.epochs.clear()
        self.calls.clear()


class Tracer:
    """Records a span (name, start, end, parent, error) per call of a TRACED
    function, in memory, and sums self time and counts per name."""

    def __init__(self, mods):
        self.mods = mods
        self.patcher = Patcher()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.peak_bytes: Counter = Counter()
        self.nonempty_khop = 0

    def install(self) -> None:
        for module_name, funcs in TRACED.items():
            module = getattr(self.mods, module_name)
            for func in funcs:
                name = f"{module_name}.{func}"
                self.patcher.replace(func, getattr(module, func),
                                     lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self) -> None:
        self.patcher.restore()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        rec = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(rec, type(exc))
            raise
        self._close(rec, None)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list, exc_type) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()
        if exc_type is not None:
            rec[4] = exc_type.__name__

    def _wrap(self, name: str, fn):
        measure_memory = name in MEMORY_SPANS
        count = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal count
            started_tm = (measure_memory and count % MEMORY_EVERY == 0
                          and not tracemalloc.is_tracing())
            count += 1
            if started_tm:
                tracemalloc.start()
            rec = self._open(name)
            exc_type = None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                exc_type = type(exc)
                raise
            finally:
                self._close(rec, exc_type)
                if started_tm:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            if name == "graph.khop_neighbors" and out:
                self.nonempty_khop += 1
            return out

        return traced

    def summary(self) -> tuple[dict[str, float], Counter, Counter]:
        """Self time in ms, call counts and failed-call counts per span name.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ms: dict[str, float] = defaultdict(float)
        calls, failed = Counter(), Counter()
        for i, (name, t0, t1, _, err) in enumerate(self.spans):
            self_ms[name] += (t1 - t0 - child[i]) * 1e3
            calls[name] += 1
            if err is not None:
                failed[name] += 1
        return self_ms, calls, failed

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, parent, name, start, end, error."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\terror\n")
            for i, (name, t0, t1, parent, err) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0 - base:.6f}\t{t1 - base:.6f}\t"
                         f"{err or '-'}\n")
