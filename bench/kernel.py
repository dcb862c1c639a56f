"""Reference kernel: fixed numpy + Python work that times the host.

The host this benchmark was built on changes speed from one second to the
next (the same work run back to back can take 60% longer one time than
the next), so a stage is timed against the speed of the host *during*
that stage:
HostSampler runs a short reference kernel from a timer signal every
SAMPLE_INTERVAL seconds while the stage runs, and once at each end.  The
stage's time in ref units is its wall time, less the time spent in the
sampler, divided by the mean kernel time over those samples.

The kernel imports nothing from gbsdelab, so no change to the program can
move it.  Its mix follows the program's: small-array stencil updates
(interpreter and numpy call overhead, like pde.step_backward), an
interpolation batch (like the path loop in gsim) and small broadcast
reductions (like an envelope lattice build).
"""

from __future__ import annotations

import signal
import time

import numpy as np

SAMPLE_INTERVAL = 0.1



def reference_kernel() -> float:
    """Run the kernel once (about 2 ms) and return its wall time in seconds.

    Every array stays below 64 KB, so the kernel never maps fresh memory
    and its speed does not depend on the state of the allocator.
    """
    t0 = time.perf_counter()
    xs = np.linspace(-6.0, 6.0, 601)
    u = xs * xs
    for _ in range(50):
        d2 = np.zeros_like(u)
        d2[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        g = 0.5 * np.maximum(d2, 0.0) - 0.25 * np.maximum(-d2, 0.0)
        u = u + 1e-3 * np.where(xs >= 0.0, g, 0.5 * g)
    qs = np.linspace(-6.0, 6.0, 5000)
    acc = float(np.interp(qs, xs, u).sum())
    a = np.linspace(-1.0, 1.0, 16)
    for k in range(8):
        b = np.linspace(-2.0, 2.0, 512) + 0.01 * k
        acc += float(np.min(np.abs(a[:, None] - b[None, :]), axis=1).sum())
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel diverged")
    return time.perf_counter() - t0


class HostSampler:
    """Samples the reference kernel across a timed interval.

    Use as a context manager around the work; afterwards `busy` is the
    wall time the timer samples took from the work and `kernel` the mean
    kernel time over all samples, the two at the ends included.
    """

    def __init__(self, enabled: bool = True):
        """With enabled false only the two end samples are taken."""
        self.interval = SAMPLE_INTERVAL if enabled else 0.0
        self.samples = []
        self.busy = 0.0

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.samples.append(reference_kernel())
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(reference_kernel())
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_kernel())
        return False

    @property
    def kernel(self) -> float:
        return sum(self.samples) / len(self.samples)
