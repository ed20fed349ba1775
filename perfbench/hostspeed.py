"""The host's speed, measured with a fixed calibration kernel.

The benchmark host is shared: its speed drifts by up to 60% over seconds
to minutes, and no number of rounds averages that out.  After each timed
job and each set-up, the benchmark runs a kernel for SHARE of that time.
The kernel's mean time over a stretch, against its reference time, gives
the host's speed there.

The kernels use nothing from the program, so no program change can move
them.  Each tracks the slowdowns of one kind of work.  Over runs at
different host speeds, the measured time of the pure-Python workloads
moved in step with ``interp`` (log-log slope 0.95-1.0, r >= 0.96), and
that of the numpy-bound prime counts with ``numpy`` (slope 1.15,
r = 0.88), while ``interp`` barely tracked the latter (slope 0.18).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

SHARE = 0.1


def _step(a, b):
    return (a * 31 + b) % 1009, (a ^ b) & 1023


def interp():
    """Interpreter work on small ints, tuples, a list and a dict."""
    tab = [(i * 7) % 101 for i in range(101)]
    d = {}
    acc = 0
    for i in range(300):
        a, b = _step(tab[i % 101], i)
        d[a] = d.get(a, 0) + b
        acc += len((a, b, acc & 7)) + sum(tab[i % 50:i % 50 + 4])
    return acc


_VEC = np.arange(1 << 16, dtype=np.int64)
_TMP = np.empty_like(_VEC)


def numpy():
    """Two elementwise passes and a sum over a 512 KiB int64 array."""
    np.multiply(_VEC, 31, out=_TMP)
    np.remainder(_TMP, 1009, out=_TMP)
    return int(_TMP.sum())


# name -> (kernel, mean seconds per call that counts as speed 1).  The
# references are close to the kernels' means on a 2-core Xeon sandbox at
# 2.1 GHz with Python 3.11, when it was least contended.
KERNELS = {"interp": (interp, 200e-6), "numpy": (numpy, 300e-6)}


class Speedometer:
    """Kernel times collected over one stretch of a run."""

    def __init__(self, name):
        self.name = name
        self.kernel, self.ref_s = KERNELS[name]
        self.times = []

    def follow(self, seconds):
        """Run the kernel for about SHARE * seconds, at least once."""
        t_end = perf_counter() + SHARE * seconds
        while True:
            t0 = perf_counter()
            self.kernel()
            t1 = perf_counter()
            self.times.append(t1 - t0)
            if t1 >= t_end:
                return

    def speed(self):
        """Reference time over mean time: 1 at the reference speed."""
        return self.ref_s / statistics.fmean(self.times)

    def summary(self):
        return {"kernel": self.name, "calls": len(self.times),
                "mean_s": statistics.fmean(self.times), "ref_s": self.ref_s,
                "speed": self.speed()}
