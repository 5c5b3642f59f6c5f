"""Host-speed calibration, so that timings do not follow a shared host.

On a shared virtual machine the speed of one core drifts by tens of percent
within seconds to minutes, with the load of its neighbours.  Wall times of
the same work then differ between runs by as much as any optimisation would
change them.  ``HostClock`` measures that speed while the benchmark runs:
every ``PERIOD_S`` of process CPU time a profiling-timer signal runs a short
calibration kernel in the main thread.  The kernel does not touch plaplab
and mixes the operations plaplab spends its time in: COO assembly, sparse
direct solves in 1D and 2D, elementwise numpy on grid-sized arrays, and
Python-level calls.

A timed interval is then expressed in *reference seconds*: its wall time
without the kernels that ran inside it, multiplied by ``REFERENCE_S`` over
the mean kernel time around it.  On a host running at its reference speed a
reference second is a wall-clock second; a change that makes plaplab twice
as fast halves it at any host speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median kernel time on the host the benchmark was written on (README.md),
# so that reference seconds stay close to the wall seconds seen there.
REFERENCE_S = 0.008
PERIOD_S = 0.25  # process CPU time between two calibration samples

_N1 = 2049  # sweep1d resolution
_N2 = 33  # sweep2d resolution, per side
_SMALL_OPS = 30


def _stencil_2d(coef):
    """Five-point matrix of a variable-coefficient operator, built from COO
    triplets as the 2D Jacobian is."""
    n = _N2
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [4.0 * coef.ravel()]
    for a, b in (((slice(1, None), slice(None)), (slice(None, -1), slice(None))),
                 ((slice(None), slice(1, None)), (slice(None), slice(None, -1)))):
        for i, j in ((a, b), (b, a)):
            rows.append(idx[i].ravel())
            cols.append(idx[j].ravel())
            vals.append(-0.5 * (coef[i] + coef[j]).ravel())
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n * n, n * n)).tocsc()


_X1 = np.linspace(0.0, 1.0, _N1)
_U2 = np.add.outer(np.linspace(0.0, 1.0, _N2), np.linspace(0.0, 1.0, _N2))


def kernel():
    """Fixed work, the same on every call; returns a checksum."""
    g1 = np.abs(np.diff(_X1 * (1.0 + _X1))) ** 0.5 + 1.0
    off = -g1[1:-1]
    mat1 = sp.diags([off, g1[:-1] + g1[1:], off], [-1, 0, 1], format="csc")
    total = float(spla.spsolve(mat1, np.ones(_N1 - 2)).sum())
    coef = np.maximum(np.abs(np.gradient(_U2 * 2.0)[0]), 0.1) ** 0.5
    total += float(spla.spsolve(_stencil_2d(coef), np.ones(_N2 * _N2)).sum())
    for _ in range(_SMALL_OPS):
        v = np.maximum(_X1 - 0.5, 0.0) ** 1.5
        total += float(np.dot(v, _X1)) + sum(float(c) for c in coef[0])
    return total


class HostClock:
    """Calibration samples taken on a profiling timer while it is active.

    Use it as a context manager around the timed work.  A sample is taken
    on entry and on exit too, so every interval timed inside is bracketed.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts, self.kernel_s = [], []
        self._previous = None

    def _on_signal(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.kernel_s.append(time.perf_counter() - start)

    def __enter__(self):
        self._on_signal(None, None)
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._on_signal(None, None)

    def seconds(self, start, end):
        """Wall time of [start, end] less the kernels run inside it, and
        that time in reference seconds, at the host speed measured by those
        kernels and the nearest one on each side."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if first == 0 or last == len(self.starts):
            raise ValueError("timed interval not bracketed by samples")
        wall = end - start - sum(self.kernel_s[first:last])
        speed = statistics.fmean(self.kernel_s[first - 1:last + 1])
        return wall, wall * REFERENCE_S / speed

    def summary(self):
        return {"reference_s": REFERENCE_S, "period_s": self.period,
                "samples": len(self.kernel_s),
                "kernel_s_p50": statistics.median(self.kernel_s),
                "kernel_s": self.kernel_s}
