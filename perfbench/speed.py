"""Machine-speed probe that corrects untraced pass times for a drifting host.

On a shared virtual machine the speed of a core changes by up to a factor of
two within seconds to minutes, as other tenants load the host, and neither
steal time nor process CPU time shows it.  Raw pass times then spread over a
set of runs by more than any useful regression bound.  So during each
untraced pass an interval timer runs two fixed probe kernels every
``INTERVAL_S`` seconds:

- ``small``: a chain of 2x2 ``np.linalg.solve`` and ``np.linalg.norm`` calls,
  like the per-step numpy calls of the optimizer and shooting loops;
- ``big``: two ufuncs and a sum over a 2.4 MB array, like the whole-horizon
  array kernels of the certificate and the Picard solves.

The probes are the benchmark's own code, so a change to the library does not
change them.  A sample's speed is ``(REF_SMALL_S / t_small) ** w *
(REF_BIG_S / t_big) ** (1 - w)``, where ``w`` is the workload's share of
small-call work.  The corrected pass time is the pass's wall time minus the
time spent in the probes, times the mean speed of its samples: the time the
pass would take on a host where the probes take ``REF_SMALL_S`` and
``REF_BIG_S``.  Samples are taken uniformly in wall time, so the mean of
their speeds is the host's mean speed over the pass.

The timer uses ``SIGALRM``, whose handler runs in the main thread between
bytecodes; a long native call delays a sample but does not lose the pass.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# probe times that define one reference second (about the quiet-host times of
# an Intel Xeon vCPU with Python 3.11 and numpy 2.4)
REF_SMALL_S = 5e-4
REF_BIG_S = 1e-3

_SMALL_CALLS = 40
_BIG_SIZE = 300_000


class SpeedSampler:
    """Samples the probe kernels on a timer while a ``with`` block runs."""

    def __init__(self):
        self._a = np.array([[2.0, 0.3], [0.1, 1.5]])
        self._b = np.array([1.0, -1.0])
        self._big = np.linspace(0.0, 1.0, _BIG_SIZE)
        self._out = np.empty(_BIG_SIZE)
        self.samples: list = []  # (t_small, t_big) per tick
        self.probe_s = 0.0  # wall time the timer's samples took
        self._previous = None

    def sample(self) -> float:
        """Time both kernels once; returns the wall time the sample took."""
        t0 = time.perf_counter()
        x = self._b
        for _ in range(_SMALL_CALLS):
            x = np.linalg.solve(self._a, x)
            x = x / np.linalg.norm(x)
        t1 = time.perf_counter()
        np.multiply(self._big, 0.999, out=self._out)
        np.add(self._out, self._big, out=self._out)
        self._out.sum()
        t2 = time.perf_counter()
        self.samples.append((t1 - t0, t2 - t1))
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.probe_s += self.sample()

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.probe_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval: sample after it
            self.sample()

    def speeds(self) -> tuple:
        """Mean speed of the small and of the big kernel, relative to the reference."""
        return (statistics.fmean(REF_SMALL_S / s for s, _ in self.samples),
                statistics.fmean(REF_BIG_S / b for _, b in self.samples))

    def speed(self, small_share: float) -> float:
        """Mean weighted speed of the samples; 1.0 is the reference host."""
        return statistics.fmean((REF_SMALL_S / s) ** small_share
                                * (REF_BIG_S / b) ** (1.0 - small_share)
                                for s, b in self.samples)
