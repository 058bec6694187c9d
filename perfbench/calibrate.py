"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared VM, neighbouring tenants slow this process down by up to
2x for seconds to minutes at a time, so raw wall times of the same code vary
by ±30% between runs. A fixed kernel, independent of somnoflow and built from
the same kinds of work (small numpy reductions and einsum contractions driven
from a Python loop), is timed between operations. Every raw duration is then
scaled by REFERENCE_S / (the kernel's time interpolated at the middle of that
duration): a duration in reference seconds is what it would have taken while
the kernel ran at its reference speed. A change to somnoflow moves raw and
scaled times alike; the kernel never calls somnoflow.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# the kernel's time on an unloaded 2.1 GHz Xeon vCPU (numpy 2.4, Python 3.11)
REFERENCE_S = 1.35e-3
INTERVAL_S = 0.1
RUNS = 3

_rng = np.random.default_rng(0)
_P = _rng.random(64)
_W = _rng.standard_normal((16, 5, 3)).astype(np.float32)
_X1 = _rng.standard_normal((1, 5, 30)).astype(np.float32)
_X32 = _rng.standard_normal((32, 5, 30)).astype(np.float32)
_FC = _rng.standard_normal((16, 224)).astype(np.float32)


def _head(x):
    """Batch-1 style work: many small numpy calls from Python."""
    y = np.einsum("ocj,nclj->nol", _W, sliding_window_view(x, 3, axis=2))
    y = np.maximum((y - 0.1) * 1.5 + 0.2, 0)
    view = sliding_window_view(y, 2, axis=2)[:, :, ::2]
    y = np.take_along_axis(view, view.argmax(axis=3)[..., None], axis=3)[..., 0]
    return np.einsum("oi,ni->no", _FC, y.reshape(len(y), -1))


def kernel():
    """About 1 ms of the kinds of work somnoflow does: batch-1 layer calls,
    per-element medians, and batch-32 contractions with their gradients."""
    for _ in range(3):
        _head(_X1)
    for i in range(2, 22):
        np.median(_P[i - 2:i + 3])
    view = sliding_window_view(_X32, 3, axis=2)
    y = np.einsum("ocj,nclj->nol", _W, view)
    np.einsum("nol,nclj->ocj", y, view)


class Calibrator:
    """Samples the kernel (mean of RUNS calls) at most every INTERVAL_S when
    ticked, and converts raw durations to reference seconds."""

    def __init__(self):
        self._at = []
        self._seconds = []
        self._next = 0.0
        self.spent = 0.0          # seconds spent sampling so far

    def sample(self):
        clock = time.perf_counter
        t0 = clock()
        for _ in range(RUNS):
            kernel()
        t1 = clock()
        self._at.append((t0 + t1) / 2)
        self._seconds.append((t1 - t0) / RUNS)
        self._next = t1 + INTERVAL_S
        self.spent += t1 - t0

    def tick(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, at):
        """Reference seconds per raw second at perf_counter time(s) `at`."""
        return REFERENCE_S / np.interp(at, self._at, self._seconds)

    def scale(self, start, seconds):
        """Raw duration(s) starting at `start` in reference seconds."""
        return seconds * self.factor(np.asarray(start) + np.asarray(seconds) / 2)

    def summary(self):
        s = np.asarray(self._seconds)
        return {"samples": len(s), "reference_s": REFERENCE_S,
                "kernel_s_median": float(np.median(s)) if len(s) else None,
                "factor_median": float(REFERENCE_S / np.median(s)) if len(s) else None}
