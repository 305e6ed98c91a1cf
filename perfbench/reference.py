"""Machine-speed reference timed next to every op.

On a shared machine the speed a worker gets can change by up to about 1.8x
for tens of seconds at a time, often a whole run.  Op timings (wall_s,
op_p50_s, op_p90_s, trace.overhead_s) are therefore reported in nominal
seconds:

    nominal = raw seconds * NOMINAL_S / (time of ``reference()`` next to it)

The reference is a fixed mix of the two kinds of work conespec does: a
vectorised RK4 step-matrix scan like the numpy band kernel, and an
interpreted loop.  It lives here, not in the package, so no change to conespec
can change it.  Raw seconds are kept in every result file.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About one reference() call on the 2.1 GHz Xeon vCPU the benchmark was tuned
# on; it only sets the scale of the nominal seconds.
NOMINAL_S = 0.020

_THETAS = np.linspace(math.pi / 2 - 0.55, math.pi / 2, 2049)


def _companion(lam, t):
    m = np.zeros((t.size, 2, 2))
    m[:, 0, 1] = 1.0
    m[:, 1, 0] = -(lam - 2.0 / np.sin(t) ** 2)
    m[:, 1, 1] = -5.0 / np.tan(t)
    return m


def _scan(lam):
    t = _THETAS
    h = np.diff(t)[:, None, None]
    eye = np.eye(2)
    k1 = _companion(lam, t[:-1])
    mid = _companion(lam, t[:-1] + 0.5 * np.diff(t))
    k2 = mid @ (eye + 0.5 * h * k1)
    k3 = mid @ (eye + 0.5 * h * k2)
    k4 = _companion(lam, t[1:]) @ (eye + h * k3)
    steps = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    width = 1
    while width < steps.shape[0]:
        steps[width:] = steps[width:] @ steps[:-width]
        width *= 2
    return float(steps[-1, 0, 0])


def _loop(n):
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def reference() -> float:
    """Seconds one fixed reference computation takes right now."""
    t0 = time.perf_counter()
    for lam in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        _scan(lam)
    _loop(30000)
    return time.perf_counter() - t0
