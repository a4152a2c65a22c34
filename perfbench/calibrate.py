"""Host-speed calibration: a fixed kernel, timed between the timed operations.

The benchmark's host is a shared virtual machine whose speed wanders by tens
of percent, within seconds and between periods that last minutes, with no
steal time to show for it (process CPU time drifts just like wall time).  The
runner therefore times this kernel just before and just after every timed
operation (several times after a long one), and reports the time of each
operation that runs in its own process as

    seconds * REF_S / (mean of the two kernel times)

that is, the time the operation would take on a host where the kernel takes
REF_S seconds.  The kernel uses numpy only and no elliptic_lab code, so a
change to the lab moves the operations' times and not the kernel's.  It mixes
the two kinds of work the workloads do: short Python loops around tiny numpy
calls (the quadrature panels of ``quad``) and vectorized passes over arrays of
a few hundred KiB (banded solves, field evaluation).  Over repeated passes of
one workload in one process, this scaling cuts the coefficient of variation of
the pass time from about 13% to 3-7%.  It does not track fresh processes, such
as the ``lab`` children of cli-cold, so their times are reported as measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time on the host where the benchmark was defined
# (2-vCPU Intel Xeon at 2.0 GHz, CPython 3.11, numpy 2.4).
REF_S = 1.0e-3

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_ARRAY = np.linspace(1.0, 2.0, 16384)
_PANELS = 24
_SWEEPS = 3
PROBE_EVERY_S = 0.1
MAX_RUNS = 9


def _kernel() -> float:
    s = 0.0
    for k in range(_PANELS):
        lo = 1.0 + k
        x = 0.5 * _GL_X + (lo + 0.5)
        v = x ** -2.5
        if np.any(v < 0) or np.any(~np.isfinite(v)):
            raise FloatingPointError("calibration kernel")
        s += 0.5 * float(np.dot(_GL_W, v * x * x))
    for k in range(_SWEEPS):
        s += float(np.sum(np.exp(-_ARRAY * (k + 1)) * _ARRAY ** 1.5))
    return s


def kernel_s(runs: int = 1) -> float:
    """Median wall time of ``runs`` runs of the kernel."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_after(seconds: float) -> float:
    """Kernel time after an operation that took ``seconds``: one run per
    PROBE_EVERY_S of the operation, at least one and at most MAX_RUNS, so that
    a long operation gets a steadier speed estimate at about 1% of its cost."""
    return kernel_s(min(MAX_RUNS, max(1, round(seconds / PROBE_EVERY_S))))


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds, measured between kernel times before and after, at reference speed."""
    return seconds * REF_S / (0.5 * (before + after))


def timed(fn):
    """(result of fn(), its scaled seconds, its raw seconds)."""
    before = kernel_s(MAX_RUNS)
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, scaled(dt, before, kernel_s(MAX_RUNS)), dt


for _ in range(3):  # warm the kernel's code paths and caches
    _kernel()
