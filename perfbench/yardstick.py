"""Machine-speed yardstick: a fixed computation that shares no code with swarmpde.

On a shared host, neighbouring load changes how fast this process runs by
10-30% over tens of seconds to minutes, which is wider than any useful
regression bound and does not average out within a run.  The yardstick
is timed before the first and after every timed piece of work; each piece
is reported scaled by the yardstick's nominal time over the mean of the
two yardstick timings around it, that is, in seconds at the machine
speed at which the yardstick takes its nominal time.

The yardstick mixes interpreter overhead with small-array numpy calls,
the profile of a 1D step and of set-up (ROADMAP: 1D runs are per-call
overhead).  It corrects every workload; it corrects the 2D workload,
whose cost is sweeps over arrays larger than L2, less well (README).
"""

from __future__ import annotations

import time

# seconds the yardstick takes on the 2-vCPU Xeon host the baseline was
# measured on, in a quiet moment
NOMINAL_S = 0.09


class Yardstick:
    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).random((32, 130))
        self.last = self.time()

    def _work(self) -> float:
        np, a = self._np, self._a
        acc, table = 0.0, {}
        for i in range(375_000):
            table[i & 255] = acc
            acc += (i % 7) * 0.5
        for _ in range(900):
            w = 0.5 * (a[:, 1:] + a[:, :-1])
            flux = np.where(w > 0.5, a[:, 1:], a[:, :-1]) * (a[:, 1:] - a[:, :-1])
            out = np.zeros_like(a)
            out[:, :-1] += flux
            out[:, 1:] -= flux
            acc += float(out.max())
        return acc

    def time(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Correction factor for the work timed since the previous call."""
        before, self.last = self.last, self.time()
        return NOMINAL_S / (0.5 * (before + self.last))
