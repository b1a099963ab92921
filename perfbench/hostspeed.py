"""Host-speed calibration of the benchmark's end-to-end timings.

On a shared virtual machine the speed of a CPU can drop by up to 2x, in
bursts of milliseconds and in stretches of seconds to minutes, so two runs
of the same code can differ more than any change worth measuring. The
benchmark therefore times a small fixed reference kernel right before,
right after and, every SAMPLE_EVERY_S, during every timed library call,
and scales the call's wall time by ``REFERENCE_S`` over the mean kernel
time: a time is reported as it would read on a host where the kernel takes
``REFERENCE_S``. During a call the kernel runs from a SIGALRM handler in
the same thread, between two bytecodes of the library; the time spent in
the handler is taken out of the call's wall time. Kernel timings taken
only before and after a call of a few seconds miss the host's changes
during it: sampled through the call, a window's calibrated time varied
about a third as much as with before-and-after timings alone.

The kernel is small-matrix numpy work of the kind the filter does
(Cholesky factors of a 6- and a 21-entry covariance, sigma points, a
nonlinear map, a weighted covariance and a solve), so it slows down with
the host the way the library does. It lives in the benchmark and never
changes with the library, so a faster library still reads faster. The raw
wall times are kept beside the calibrated ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# the fixed host speed that calibrated times refer to: about the kernel's
# time when sampled during a library call on a 2-vCPU Xeon KVM guest
# (Python 3.11, numpy 2.4, OpenBLAS on one thread); run on its own, warm,
# it takes about 1.7 ms there at best
REFERENCE_S = 0.0025
_REPEATS = 20
# seconds between kernel timings during a timed call
SAMPLE_EVERY_S = 0.05
# bound here, before a traced run replaces the numpy.linalg names
_cholesky = np.linalg.cholesky
_solve = np.linalg.solve


def _operands():
    rng = np.random.default_rng(20210329)
    out = []
    for n in (6, 21):
        a = rng.standard_normal((n, n))
        out.append((a @ a.T / n + np.eye(n), rng.standard_normal(n)))
    return out


_OPERANDS = _operands()


def reference_kernel() -> float:
    total = 0.0
    for _ in range(_REPEATS):
        for cov, mean in _OPERANDS:
            root = _cholesky(cov)
            points = np.concatenate([mean[None, :], mean + root.T, mean - root.T])
            mapped = np.tanh(points) * 0.5 + points
            dev = mapped - mapped.mean(axis=0)
            spread = dev.T @ dev / mapped.shape[0] + 1e-3 * np.eye(mean.shape[0])
            total += float(np.trace(_solve(spread, cov)))
    return total


@dataclass(frozen=True)
class Timing:
    """A stretch's wall time and its time at the reference host speed."""

    wall: float
    calibrated: float

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.wall + other.wall, self.calibrated + other.calibrated)


NO_TIME = Timing(0.0, 0.0)


class HostSpeed:
    """Times library calls and the reference kernel around and during them.

    With ``in_call=False`` the kernel is timed only before and after a
    call; a traced run uses it, so that no kernel time lands in a span.
    """

    def __init__(self, in_call: bool = True):
        reference_kernel()  # first call pays for numpy's lazy set-up
        self.in_call = in_call
        self.kernel_s: list[float] = []
        # seconds spent in the kernel during calls so far, for callers that
        # time parts of a call themselves
        self.in_call_s = 0.0

    def _time_kernel(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        self.kernel_s.append(time.perf_counter() - t0)
        return self.kernel_s[-1]

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._time_kernel()
        self.in_call_s += time.perf_counter() - t0

    def call(self, fn, *args, **kwargs):
        """Return ``fn(*args, **kwargs)``, its Timing and the calibration
        factor (calibrated over wall seconds)."""
        first = len(self.kernel_s)
        self._time_kernel()
        in_call_before = self.in_call_s
        if self.in_call:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            if self.in_call:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        wall -= self.in_call_s - in_call_before
        self._time_kernel()
        factor = REFERENCE_S / statistics.fmean(self.kernel_s[first:])
        return result, Timing(wall, wall * factor), factor
