"""Fixed reference work that tracks how fast the machine runs right now.

Other tenants of a shared machine slow every query by up to 1.6x for
seconds at a time.  Timing reference work before and after each query, and
dividing the query's latency by the mean of the two, removes most of that:
the ratio's median moves by 1-4% between runs where raw latencies move by
15-30%.  Latencies are then reported on a machine where the reference work
takes `reference_s`.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np


class Calibration:
    """In-process kernel mixing what in-process queries spend time on:
    interpreted loops over tiny numpy calls, one batched small eigvalsh
    and one medium LAPACK call."""

    reference_s = 1e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h = (a + a.conj().T) / 2.0
        self.g = (a - a.conj().T) / 2j
        b = rng.standard_normal((60, 60))
        self.b = b + b.T
        self.thetas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        self.seconds()

    def _kernel(self) -> None:
        h, g, th = self.h, self.g, self.thetas
        top = np.linalg.eigvalsh(np.cos(th)[:, None, None] * h
                                 + np.sin(th)[:, None, None] * g)[:, -1]
        lo, hi = th[top.argmax()] - 0.03, th[top.argmax()] + 0.03
        for _ in range(20):
            c = hi - 0.618 * (hi - lo)
            d = lo + 0.618 * (hi - lo)
            fc = np.linalg.eigvalsh(math.cos(c) * h + math.sin(c) * g)[-1]
            fd = np.linalg.eigvalsh(math.cos(d) * h + math.sin(d) * g)[-1]
            if fc >= fd:
                hi = d
            else:
                lo = c
        np.linalg.eigvalsh(self.b)

    def seconds(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start


class ProcessCalibration:
    """A fresh interpreter importing numpy, for queries that are processes:
    it tracks process start-up and imports, which the kernel does not."""

    reference_s = 0.15

    def seconds(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       timeout=60)
        return time.perf_counter() - start
