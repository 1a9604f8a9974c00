"""Batch experiments: seeded initial conditions, runs, gap statistics.

Runs are independent given (seed, run index), since each draws its
initial condition from its own substream; they execute one after
another, in run order.  Inter-event gaps are pooled across runs before
averaging (seed-robust, and the convention is recorded here: tau_avg
is the mean of the pooled gaps, not a mean of per-run means).  Divergent
runs are excluded from the statistics and listed in ``failures`` instead
of being averaged away.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DivergenceError
from .hybrid import SimSettings, simulate
from .model import Certificate, ClosedLoopSystem, HybridState
from .sampling import check_int, uniform_ball
from .trigger import TriggerConfig


EVENTS_HEADER = ("run", "j", "t_j", "gap")


@dataclass(frozen=True)
class BatchSpec:
    """A batch: how many runs, the IC ball, the horizon and the seed.

    ``sim`` holds ``horizon_t`` and ``record_states=False``, checked on construction; runs get it as is.
    A spec without ``trigger`` or ``sim`` is a ball only: ``sample_initial`` reads it,
    ``run_batch`` refuses it.
    """

    n_runs: int
    radius: float
    horizon_t: float
    seed: int
    trigger: Optional[TriggerConfig]
    sim: Optional[SimSettings]

    def __post_init__(self):
        check_int(self.n_runs, "n_runs", 1)
        # Written as `not x > 0` so that NaN fails every guard.
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 0 < self.horizon_t < math.inf:
            raise ValueError("horizon_t must be positive and finite")
        check_int(self.seed, "seed")
        if self.sim is not None:
            object.__setattr__(self, "sim", replace(self.sim, horizon_t=self.horizon_t, record_states=False))
            if not self.radius <= self.sim.blowup_norm:
                raise ConfigError(f"batch radius {self.radius:g} exceeds blowup_norm {self.sim.blowup_norm:g}")


@dataclass(frozen=True)
class RunStats:
    run: int
    n_events: int
    min_gap: Optional[float]


@dataclass
class BatchReport:
    """Pooled inter-transmission statistics over the completed runs."""

    tau_min: Optional[float]
    tau_avg: Optional[float]
    n_events_total: int
    n_runs: int
    per_run: List[RunStats]
    failures: List[int]
    events: List[Tuple[int, int, float, float]]  # (run, j, t_j, gap)


def sample_initial(spec: BatchSpec, k: int, n_x: int, n_e: int) -> HybridState:
    """Initial condition for run k: |(x, e)| <= radius, tau = 0.

    A deterministic function of (seed, k): each run owns an independent
    substream.
    """
    check_int(k, "run index")
    if k >= spec.n_runs:
        raise ValueError(f"run index {k} out of range for n_runs = {spec.n_runs}")
    rng = np.random.default_rng([spec.seed, k])
    z = uniform_ball(rng, n_x + n_e, spec.radius)
    return HybridState(z[:n_x], z[n_x:], 0.0)


def run_batch(
    sys: ClosedLoopSystem,
    cert: Certificate,
    spec: BatchSpec,
    n_workers: int = 1,
) -> BatchReport:
    """Simulate the runs one after another, each with ``spec.sim`` as given, and pool their logs.

    ``n_workers`` must be 1: under the interpreter lock threads ran them slower.
    """
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (runs are sequential), got {n_workers!r}")
    for name in ("trigger", "sim"):
        if getattr(spec, name) is None:
            raise ValueError(f"run_batch: spec.{name} is None, so the spec is a ball only")
    per_run, failures, events = [], [], []
    for k in range(spec.n_runs):
        q0 = sample_initial(spec, k, sys.n_x, sys.n_e)
        try:
            sol = simulate(sys, cert, spec.trigger, q0, spec.sim)
        except DivergenceError:
            failures.append(k)
            continue
        rows = sol.gap_rows()
        events.extend((k,) + row for row in rows)
        min_gap = min(gap for _j, _t, gap in rows) if rows else None
        per_run.append(RunStats(run=k, n_events=sol.n_jumps, min_gap=min_gap))

    pooled = [gap for _run, _j, _t, gap in events]
    return BatchReport(
        tau_min=min(pooled) if pooled else None,
        tau_avg=float(np.mean(pooled)) if pooled else None,
        n_events_total=sum(r.n_events for r in per_run),
        n_runs=spec.n_runs,
        per_run=per_run,
        failures=failures,
        events=events,
    )


def emit_report(rep: BatchReport, path) -> Tuple[str, str]:
    """Write summary JSON and per-event CSV into the directory ``path``.

    The CSV rows are ``rep.events`` as held, in (run, j) order from ``run_batch``.
    Overwrites existing files.  Returns the two file paths.
    """
    summary_path = os.path.join(path, "summary.json")
    events_path = os.path.join(path, "events.csv")
    summary = {
        "tau_min": rep.tau_min,
        "tau_avg": rep.tau_avg,
        "n_events_total": rep.n_events_total,
        "n_runs": rep.n_runs,
        "failures": rep.failures,
    }
    try:
        os.makedirs(path, exist_ok=True)
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        write_csv(events_path, EVENTS_HEADER, rep.events)
    except OSError as exc:
        raise OSError(f"failed to write report under {os.fspath(path)!r}: {exc}") from exc
    return summary_path, events_path


def write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` to the CSV file ``path``.

    Floats, numpy float64 included, are written with 17 significant
    digits so that they read back bit for bit; other values as they are.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
