"""Calls into lsgg's modules, wrapped from outside the program, and the
calibration kernel that turns their wall times into seconds at a nominal host
speed.

The host this benchmark was built on changes speed over tens of seconds to
minutes, so raw seconds do not repeat from run to run. A small
BLAS-free kernel of the benchmark's own runs between the calls the probe
already wraps. Each stretch of program time between two kernel runs is
scaled by (``KERNEL_NOMINAL_S`` / their mean kernel time) ** ``KERNEL_EXPONENT``.
Kernel time itself is left out of every figure.
"""

from __future__ import annotations

from collections import Counter
import functools
import time

import numpy as np

# kernel time, in seconds, at the nominal host speed: the kernel's median on
# the fast level of a 2-core Intel Xeon host (numpy 2.4.6)
KERNEL_NOMINAL_S = 0.0022
# The program slows more than the single-threaded kernel when the host does:
# over 26 runs of one wo_inc input, run time scaled with kernel time to the
# power 1.5; with power 1 the calibrated times still rose with the raw ones
# (correlation +0.90 against -0.03).
KERNEL_EXPONENT = 1.5
KERNEL_ROUNDS = 120
STEPS_PER_KERNEL = 4  # AdamW steps between kernel runs during training
RANKS_PER_KERNEL = 2  # ranking batches between kernel runs during evaluation

_KERNEL_INPUT = np.linspace(0.0, 1.0, 4096).reshape(64, 64)


def kernel_work() -> float:
    """The calibration kernel: elementwise numpy on a 64x64 array plus
    interpreter work, 2-3 ms, no BLAS call."""
    a = _KERNEL_INPUT.copy()
    acc = 0.0
    for i in range(KERNEL_ROUNDS):
        b = np.multiply(a, 0.999)
        b += 0.001
        np.sqrt(b, out=b)
        a = np.minimum(b, a + 0.01)
        acc += float(a[i & 63, (7 * i) & 63]) + sum(j * j for j in range(40)) * 1e-9
    return acc


def _speed(kernel_s):
    """Nominal seconds per raw second at a measured kernel time."""
    return (KERNEL_NOMINAL_S / kernel_s) ** KERNEL_EXPONENT


class CalibratedClock:
    """Maps raw ``perf_counter`` times onto a clock that runs at nominal host
    speed and stands still while the kernel runs.

    ``kernels`` holds (wall begin, wall end, cpu begin, cpu end) per kernel
    run, in time order. Program time between kernel runs i and i+1 is scaled
    by the speed factor of the mean of their two kernel times; time before
    the first or after the last uses that kernel's time alone.
    """

    def __init__(self, kernels):
        k = np.asarray(kernels, dtype=float)
        if k.ndim != 2 or len(k) < 2:
            raise ValueError("the clock needs at least two kernel runs")
        begin, end = k[:, 0], k[:, 1]
        dur = end - begin
        self.kernel_s = dur
        self._gap_scale = _speed((dur[:-1] + dur[1:]) / 2.0)  # nominal s per raw s
        gap_len = begin[1:] - end[:-1]
        # knots: every kernel begin and end; the clock is flat inside a kernel
        self._knots = np.empty(2 * len(k))
        self._knots[0::2], self._knots[1::2] = begin, end
        values = np.zeros_like(self._knots)
        values[2::2] = np.cumsum(gap_len * self._gap_scale)
        values[3::2] = values[2::2]
        self._values = values
        self._head, self._tail = _speed(dur[0]), _speed(dur[-1])
        self._cpu_gap = k[1:, 2] - k[:-1, 3]
        self._gap_begin = end[:-1]
        self._gap_end = begin[1:]

    def at(self, t):
        """Calibrated time of raw time(s) ``t``."""
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._knots, self._values)
        before, after = t < self._knots[0], t > self._knots[-1]
        out = np.where(before, self._values[0] - (self._knots[0] - t) * self._head, out)
        return np.where(after, self._values[-1] + (t - self._knots[-1]) * self._tail, out)

    def span(self, a, b) -> float:
        return float(self.at(b) - self.at(a))

    def cpu(self, a, b) -> tuple:
        """Process CPU seconds (all threads) between kernel runs that lie
        wholly inside [a, b]: (calibrated, raw)."""
        inside = (self._gap_begin >= a) & (self._gap_end <= b)
        raw = self._cpu_gap[inside]
        return float(np.sum(raw * self._gap_scale[inside])), float(np.sum(raw))


class Probe:
    """Wraps the calls the benchmark observes by replacing module attributes,
    the names each caller looks up, and puts them back on ``close``.

    Untraced, it counts steps, admissions and evaluated instances and runs
    the kernel at its points. Traced, it also records a span (name, begin,
    end, parent) around every wrapped call and the per-layer counts.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.kernels: list = []
        self.spans: list = []  # [name, begin, end, parent index or -1]
        self._open: list = []
        self.counts: Counter = Counter()
        self.stages: list = []  # one dict per train_stage call
        self.pool = None
        self.write_begin = None
        self._ranks = 0
        self._in_train = self._in_predict = False
        self._patches: list = []

    # -- kernel and spans ---------------------------------------------------------

    def kernel(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        kernel_work()
        t1, c1 = time.perf_counter(), time.process_time()
        self.kernels.append((t0, t1, c0, c1))

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, owner, attr: str, span: str | None, before=None, after=None):
        fn = getattr(owner, attr)
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = probe._begin(span) if probe.trace and span else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    probe._end(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def install(self) -> None:
        from lsgg import harness, trainer

        w = self._wrap
        # untraced: the calls the checks count and the kernel points
        w(harness, "init_pool", None, after=self._got_pool)
        w(harness, "train_stage", "trainer.train_stage", before=self._train_begin,
          after=self._train_end)
        w(harness, "predict_ranked", "trainer.predict_ranked", before=self._predict_begin,
          after=self._predict_end)
        for name in ("recall_at_k", "mean_recall_at_k", "weighted_map"):
            w(harness, name, f"metrics.{name}", after=self._metric_done)
        w(harness, "write_run_files", "harness.write_run_files", before=self._write_begin)
        w(trainer.AdamW, "step", "trainer.AdamW.step", after=self._step_done)
        w(trainer, "admit_exemplar", "prompt_pool.admit_exemplar", after=self._admitted)
        w(trainer, "rank_predicates_batch", "scorer.rank_predicates_batch",
          after=self._ranked)
        if not self.trace:
            return
        w(harness, "synth_generate", "datastream.synth_generate")
        w(harness, "split_random", "datastream.split_random")
        w(harness, "split_by_frequency", "datastream.split_by_frequency")
        w(harness, "make_stage_datasets", "datastream.make_stage_datasets")
        w(harness, "serialize_pool", "prompt_pool.serialize_pool")
        w(trainer, "encode_batch", "token_mapper.encode_batch", after=self._encoded)
        w(trainer, "encode_batch_backward", "token_mapper.encode_batch_backward")
        if hasattr(trainer, "_select"):
            w(trainer, "_select", "trainer._select", after=self._selected)

    def close(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- hooks ------------------------------------------------------------------------

    def _got_pool(self, pool, *args, **kwargs):
        self.pool = pool

    def _train_begin(self, stage, *args, **kwargs):
        self.kernel()
        config = args[3]
        self.stages.append({"begin": time.perf_counter(),
                            "query_items": config.epochs * len(stage.train),
                            "steps_counted": 0, "admitted_counted": 0, "eval_instances": 0})
        self._in_train = True

    def _train_end(self, out, *args, **kwargs):
        rec = self.stages[-1]
        rec["end"] = time.perf_counter()
        rec["returned"] = {"steps": out["steps"], "admitted": out["admitted"]}
        rec["store_sizes"] = [len(e.store) for e in self.pool.entries]
        self._in_train = False
        self.kernel()

    def _step_done(self, *args, **kwargs):
        rec = self.stages[-1]
        rec["steps_counted"] += 1
        if rec["steps_counted"] % STEPS_PER_KERNEL == 0:
            self.kernel()

    def _admitted(self, entry, *args, **kwargs):
        self.counts["prompt_pool.admit_attempts"] += 1
        if entry is not None:
            self.stages[-1]["admitted_counted"] += 1

    def _predict_begin(self, instances, *args, **kwargs):
        self.stages[-1]["eval_instances"] += len(instances)
        self._in_predict = True

    def _predict_end(self, *args, **kwargs):
        self._in_predict = False

    def _ranked(self, out, *args, **kwargs):
        self.counts["scorer.ranked_instances"] += len(out)
        self._ranks += 1
        if self._ranks % RANKS_PER_KERNEL == 0:
            self.kernel()

    def _metric_done(self, *args, **kwargs):
        self.counts["metrics.calls"] += 1
        self.kernel()

    def _write_begin(self, *args, **kwargs):
        self.write_begin = time.perf_counter()

    def _encoded(self, out, params, feats, kind):
        rows = np.atleast_2d(feats).shape[0]
        self.counts[f"encode_rows.{kind}"] += rows
        if self._in_predict:
            self.counts[f"encode_eval_rows.{kind}"] += rows

    def _selected(self, out, batch, *args, **kwargs):
        if self._in_train:
            self.counts["trainer.train_items"] += len(batch)
