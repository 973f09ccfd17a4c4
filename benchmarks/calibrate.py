"""Host-speed calibration for the timed sections.

On a shared host the CPU speed one process gets drifts over seconds to
minutes. On the 2-core machine this benchmark was written on, the same
20-batch `find` stream took 0.41 s and, three minutes later, 0.21 s, with
CPU time equal to wall time, so no measure of the program's own time is
steady from run to run.

Each timed section (one set-up, one mode's stream) is therefore bracketed
by a fixed kernel of the kind of work the package does, at the workload's
batch size: a random draw, then two conv3x3 -> moments -> normalize ->
relu -> 2x2 pool stages. The kernel does not use the package, so a change
to the package cannot change it. A section's reference time is its wall
time scaled by nominal / measured kernel time, the measured time being
the mean of the kernel times just before and just after the section: the
time the section would take on a host where the kernel runs at its
nominal speed. README.md gives the spreads with and without the scaling.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal kernel cost: NOMINAL_S_PER_SAMPLE per sample, plus PER_PASS_SAMPLES
# samples' worth of per-call overhead per pass. Passes are chosen to cover
# about KERNEL_SAMPLES of these, about 0.1 s at any batch size. The kernel
# time is one whole run, not the fastest of several: a section suffers the
# host's bursts of contention too, so the kernel should see them alike.
NOMINAL_S_PER_SAMPLE = 1.5e-4
PER_PASS_SAMPLES = 6
KERNEL_SAMPLES = 640


def _conv3x3(x, w):
    b, c, h, wd = x.shape
    xp = np.zeros((b, c, h + 2, wd + 2), np.float32)
    xp[:, :, 1:-1, 1:-1] = x
    out = np.zeros((b, w.shape[0], h, wd), np.float32)
    for dy in range(3):
        for dx in range(3):
            out += np.einsum("bihw,oi->bohw", xp[:, :, dy : dy + h, dx : dx + wd], w[:, :, dy, dx], optimize=True)
    return out


def _stage(x, w):
    h = _conv3x3(x, w)
    h64 = h.astype(np.float64)
    mean = h64.mean(axis=(0, 2, 3))
    var = np.square(h64 - mean[None, :, None, None]).mean(axis=(0, 2, 3))
    h = (h - mean.astype(np.float32)[None, :, None, None]) / np.sqrt(var + 1e-5).astype(np.float32)[None, :, None, None]
    h = np.maximum(h, np.float32(0.0))
    b, c, hh, ww = h.shape
    return h.reshape(b, c, hh // 2, 2, ww // 2, 2).mean(axis=(3, 5), dtype=np.float32)


class Calibrator:
    """Scales section wall times to the kernel's nominal speed."""

    def __init__(self, batch_size: int):
        rng = np.random.default_rng(2024)
        self._weights = [rng.standard_normal(s).astype(np.float32) for s in ((8, 1, 3, 3), (16, 8, 3, 3))]
        self._shape = (batch_size, 1, 16, 16)
        self._passes = max(1, round(KERNEL_SAMPLES / (batch_size + PER_PASS_SAMPLES)))
        self.nominal_s = self._passes * (batch_size + PER_PASS_SAMPLES) * NOMINAL_S_PER_SAMPLE
        self._last = None  # kernel time just after the previous section

    def _kernel(self) -> None:
        rng = np.random.default_rng(7)
        w0, w1 = self._weights
        for _ in range(self._passes):
            _stage(_stage(rng.normal(0.0, 1.0, size=self._shape).astype(np.float32), w0), w1)

    def kernel_seconds(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def timed(self, fn):
        """(fn(), wall seconds, reference seconds).

        Back-to-back sections share the kernel timing between them.
        """
        before = self._last if self._last is not None else self.kernel_seconds()
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        self._last = self.kernel_seconds()
        return out, wall, wall * self.nominal_s * 2.0 / (before + self._last)
