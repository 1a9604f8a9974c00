"""Time one set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is importing etclab and building the workload's loops and
certificates, as the first unit of a run needs them.  numpy and
scipy.linalg, etclab's dependencies, are imported before the clock
starts: their import takes ten times longer than the rest, varies with
the file system far more than with etclab, and would hide work that a
change moves into set-up.  Prints the seconds set-up took and the mean
of the calibration-kernel times (ns) just before and just after it.
"""

import sys
import time

import numpy  # noqa: F401
import scipy.linalg  # noqa: F401

from spans import NullTracer
from speed import calibrate
from workloads import WORKLOADS, import_etclab

before = calibrate()
t0 = time.perf_counter()
WORKLOADS[sys.argv[1]].setup(import_etclab(), NullTracer())
elapsed = time.perf_counter() - t0
print(elapsed, (before + calibrate()) / 2)
