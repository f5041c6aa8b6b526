"""The host's current speed, sampled with a fixed reference kernel while a call runs.

A timer interrupts the call every ``PERIOD_S`` and times ``kernel``: 150
rounds of the small numpy operations the library spends its time in (draws,
an 8x2 matmul, exp, sum), on the probe's own generator so the library's
random streams are untouched.  ``normalize`` removes the kernel's own time
from a measured interval and rescales the rest by ``REF_KERNEL_S`` over the
kernel's mean time during the interval.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# The kernel's time on a quiet host (Intel Xeon, 2 vCPUs, numpy 2.4): the
# scale that makes a normalised time read in quiet-host seconds.
REF_KERNEL_S = 7.5e-4


class SpeedProbe:
    """Context manager that samples the kernel's time while its body runs."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._a = np.ones((8, 2))
        self._eye = np.eye(2)
        self.samples = []
        self.inside_s = 0.0  # kernel time spent inside the measured interval

    def kernel(self):
        rng, a, eye = self._rng, self._a, self._eye
        t0 = time.perf_counter()
        for _ in range(150):
            np.exp(a + rng.standard_normal((8, 2)) @ eye).sum()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        self.kernel()

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.samples)
        if not self.samples:  # the body ended before the first tick
            self.kernel()

    def normalize(self, seconds):
        """``seconds`` measured around the body, at the quiet-host speed."""
        return (seconds - self.inside_s) * REF_KERNEL_S / statistics.fmean(self.samples)
