"""Calibration against the drifting speed of a shared machine.

The machine this benchmark runs on is shared, and its speed drifts by
tens of percent over seconds and sometimes nearly doubles for a while.
A fixed kernel is timed next to the measured work, and measured times
are scaled by ``REF_NS`` over the kernel's time: a scaled time is what
the work would take on a machine where the kernel takes ``REF_NS``.

The kernel mixes the three kinds of work etclab does: small-array numpy
calls in an interpreter loop (about half its time), plain float
arithmetic (a quarter) and small LAPACK solves (a quarter).  With that
mix it speeds up in the machine's fast phases about as much as the
workloads do; the numpy part alone speeds up more.
"""

import math
import time

import numpy as np
import scipy.linalg

REF_NS = 2_000_000

_M = np.array([[0.999, 0.001], [-0.002, 1.003]])
_A = np.array([[-1.0, 0.5, 0.0, 0.0], [0.0, -2.0, 0.3, 0.0],
               [0.1, 0.0, -1.5, 0.2], [0.0, 0.0, 0.4, -1.0]])
_Q = np.eye(4)


def calibrate():
    """Time the calibration kernel once; nanoseconds."""
    t0 = time.perf_counter_ns()
    z = np.array([1.0, -1.0])
    acc = 0.0
    for i in range(300):
        z = _M @ z
        acc += math.sqrt(float(z @ z)) * 0.5 + (i % 7)
    x, v, h = 1.0, 0.0, 1e-3
    for _ in range(1600):
        k1x, k1v = v, -x
        k2x, k2v = v + 0.5 * h * k1v, -(x + 0.5 * h * k1x)
        x, v = x + h * k2x, v + h * k2v
        acc += math.sqrt(x * x + v * v)
    for _ in range(5):
        np.linalg.eigvalsh(scipy.linalg.solve_continuous_lyapunov(_A.T, -_Q))
    return time.perf_counter_ns() - t0
