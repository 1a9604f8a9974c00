"""etclab benchmark: one workload, one seed, one process, one sequential caller.

    python3 perfbench/run.py --workload planar-dwell --seed 0 --seconds 12 --trace 0

Run from the root of a checkout; etclab is imported from its ``src``
directory.  With ``--trace 0`` the run measures the end-to-end metrics
over a fixed number of items, ``--seconds`` times the workload's
``items_per_s`` (about ``--seconds`` of unit time at the reference
speed), so the same seed and ``--seconds`` give the same units, the
same failures and the same event log however fast the machine runs
(closed loop: the next unit starts when the previous one returns); with
``--trace 1`` it runs a fixed number of units untraced, then the same
units traced, and reports the per-module metrics.  Either way the outputs are checked, the event log is hashed,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of the
result, with the environment, goes to ``.perfbench_out/``.

Times are reported at a reference machine speed (see ``speed.py``): the
calibration kernel is timed between units, and each unit's time is
scaled by ``speed.REF_NS`` over the mean of the kernel times just before
and just after it.  The raw figures are printed alongside.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from spans import NullTracer, PatchPointMissing, Tracer, check_tree
from speed import REF_NS, calibrate
from workloads import ROOT, WORKLOADS, Outcome, import_etclab

DEFAULT_SEED = 0  # seed 7 is held out for re-checking later claims
SETUP_REPEATS = 7
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

clock = time.perf_counter_ns


class Pass:
    """Latencies, outcomes and the event-log digest of one pass over units.

    ``speed[i]`` scales item i's times to the reference machine speed.
    """

    def __init__(self):
        self.latency_ns = []
        self.busy_ns = []
        self.speed = []
        self.outcomes = []
        self.sha = hashlib.sha256()
        self.hashed = 0

    def scaled(self, times_ns):
        return [t * f for t, f in zip(times_ns, self.speed)]

    def total(self, attr):
        return sum(getattr(o, attr) for o in self.outcomes)

    def counts(self):
        out = {}
        for o in self.outcomes:
            for k, v in o.counts.items():
                out[k] = out.get(k, 0) + v
        return out


def _field(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def run_items(wl, ctx, tr, seed, n_items, *, check=True):
    """Run items 0, 1, ..., ``n_items`` - 1 and hash every item's event-log rows.

    Input generation and the pure-event reference batch are not timed.
    A unit that raises counts as failed and the pass goes on.
    """
    p = Pass()
    cal_before = calibrate()
    for i in range(n_items):
        inp = wl.make_input(ctx, seed, i)
        ref = wl.reference(ctx, inp) if check else None
        t0 = clock()
        try:
            with tr.span("unit", unit=i):
                out = wl.run(ctx, inp, tr)
        except Exception as exc:  # the unit failed; record why and carry on
            t1 = clock()
            oc = Outcome(units=wl.runs_per_item)
            oc.fail(wl.runs_per_item, f"{type(exc).__name__}: {exc}", wrong=False)
        else:
            t1 = clock()
            oc = wl.record(out)
            if check:
                wl.check(oc, inp, out, ref)
        for row in oc.rows:
            p.sha.update((f"{i}," + ",".join(map(_field, row)) + "\n").encode())
        p.hashed += 1
        p.latency_ns.append(t1 - t0)
        p.busy_ns.append(clock() - t0)
        p.outcomes.append(oc)
        cal_after = calibrate()
        p.speed.append(2 * REF_NS / (cal_before + cal_after))
        cal_before = cal_after
    return p


def median_setup_s(name, repeats):
    """Median of ``repeats`` set-ups, each in a fresh interpreter: (scaled, raw) seconds."""
    raw, scaled = [], []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        seconds, cal_ns = map(float, done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REF_NS / cal_ns)
    return statistics.median(scaled), statistics.median(raw)


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end_metrics(p, setup_s, latency_ns, busy_ns):
    units = p.total("units")
    failed = p.total("errors") + p.total("wrong")
    per_unit_ms = [ns / o.units / 1e6 for ns, o in zip(latency_ns, p.outcomes)]
    p50, p90 = np.percentile(per_unit_ms, [50, 90])
    return {
        "setup_s": (setup_s, "s"),
        "units_per_s": (units / (sum(busy_ns) / 1e9), "1/s"),
        "unit_ms_p50": (float(p50), "ms"),
        "unit_ms_p90": (float(p90), "ms"),
        "success_frac": ((units - failed) / units, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(stats, counts, probes, overhead, speed):
    """Per-module metrics; every time is multiplied by the speed factor ``speed``."""

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def per_call(name, scale, self_time=False):
        n, total, own = stats.get(name, (0, 0, 0))
        return (own if self_time else total) * speed / n / scale if n else 0.0

    def total_ns(name):
        return stats.get(name, (0, 0, 0))[1]

    sim_ns = total_ns("hybrid.simulate")
    samples = counts.get("hybrid.recorded_samples", 0)
    checked = counts.get("systems.samples", 0)
    return {
        "hybrid.simulate_self_s": (per_call("hybrid.simulate", 1e9, self_time=True), "s"),
        "hybrid.jumps": (counts.get("hybrid.jumps", 0), "count"),
        "montecarlo.run_batch_s": (per_call("montecarlo.run_batch", 1e9), "s"),
        "montecarlo.emit_report_ms": (per_call("montecarlo.emit_report", 1e6), "ms"),
        "montecarlo.sample_initial_us": (per_call("montecarlo.sample_initial", 1e3), "us"),
        "trigger.event_calls": (calls("trigger.event"), "count"),
        "trigger.event_us": (per_call("trigger.event", 1e3), "us"),
        "trigger.event_share": (total_ns("trigger.event") / sim_ns if sim_ns else 0.0, "ratio"),
        "model.cert_calls": (calls("model.cert"), "count"),
        "model.cert_us": (per_call("model.cert", 1e3), "us"),
        "model.fg_calls": (calls("model.fg"), "count"),
        "model.fg_us": (per_call("model.fg", 1e3), "us"),
        "hybrid.flow_step_us": (probes.get("hybrid.flow_step_us", 0.0) * speed, "us"),
        "hybrid.recorded_samples": (samples, "count"),
        "hybrid.record_overhead_frac": (probes.get("hybrid.record_overhead_frac", 0.0), "ratio"),
        "hybrid.r_monitor_us_per_sample": (
            total_ns("hybrid.r_monitor") * speed / samples / 1e3 if samples else 0.0, "us"),
        "lti.design_certificate_ms": (per_call("lti.design_certificate", 1e6), "ms"),
        "lti.assemble_us": (per_call("lti.assemble", 1e3), "us"),
        "linalg.solve_lyapunov_calls": (calls("linalg.solve_lyapunov"), "count"),
        "linalg.solve_lyapunov_us": (per_call("linalg.solve_lyapunov", 1e3), "us"),
        "systems.check_ms": (per_call("systems.check", 1e6), "ms"),
        "systems.check_skip_ratio": (
            counts.get("systems.skipped", 0) / checked if checked else 0.0, "ratio"),
        "sampling.uniform_ball_us": (per_call("sampling.uniform_ball", 1e3), "us"),
        "trigger.zeta_time_ms": (per_call("trigger.zeta_time", 1e6), "ms"),
        "trigger.masp_us": (per_call("trigger.masp", 1e3), "us"),
        "trace_overhead_frac": (overhead, "ratio"),
    }


def benchmark(name, seed, seconds, trace, *, n_items=None, trace_items=None,
              setup_repeats=SETUP_REPEATS):
    """Run one workload; return (result, report lines, tracer or None)."""
    wl = WORKLOADS[name]
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}"]
    E = import_etclab()
    setup_s, setup_raw_s = (None, None) if trace else median_setup_s(name, setup_repeats)
    os.makedirs(OUT_DIR, exist_ok=True)
    report_dir = os.path.join(OUT_DIR, f"reports-{os.getpid()}")
    null = NullTracer()
    tr = None
    try:
        ctx = wl.setup(E, null, report_dir)
        try:  # warm-up, not measured; a failure here shows again in the measured pass
            wl.run(ctx, wl.make_input(ctx, seed, 0), null)
        except Exception:
            pass
        if not trace:
            n = n_items or max(wl.min_items, round(seconds * wl.items_per_s))
            p = run_items(wl, ctx, null, seed, n)
            metrics = end_to_end_metrics(p, setup_s, p.scaled(p.latency_ns), p.scaled(p.busy_ns))
            raw = end_to_end_metrics(p, setup_raw_s, p.latency_ns, p.busy_ns)
        else:
            k = trace_items or max(2, round(seconds * wl.trace_items_per_s))
            p = run_items(wl, ctx, null, seed, k)
            probes = wl.probes(ctx, seed, k) if hasattr(wl, "probes") else {}
            tr = Tracer()
            try:
                tr.install(E)
                with tr.span("setup", unit="setup"):
                    tctx = wl.setup(E, tr, report_dir)
                traced = run_items(wl, tctx, tr, seed, k, check=False)
            finally:
                tr.uninstall()
            if traced.sha.digest() != p.sha.digest():
                raise RuntimeError("the traced run produced a different event log")
            roots = check_tree(tr)
            stats = tr.stats()
            silent = [n for n in wl.must_call if stats.get(n, (0,))[0] == 0]
            if silent:
                raise PatchPointMissing(f"wrapped callables never called: {silent}")
            overhead = sum(traced.scaled(traced.latency_ns)) / sum(p.scaled(p.latency_ns)) - 1.0
            speed = statistics.fmean(p.speed + traced.speed)
            metrics = per_layer_metrics(stats, traced.counts(), probes, overhead, speed)
            raw = per_layer_metrics(stats, traced.counts(), probes, overhead, 1.0)
            lines.append(f"trace: {k} items, {len(tr.spans)} spans under {roots} roots, "
                         f"{len(tr.aggs)} aggregates")
    finally:
        shutil.rmtree(report_dir, ignore_errors=True)

    units = p.total("units")
    failed = p.total("errors") + p.total("wrong")
    env = environment()
    lines.append("env " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}"
                                   for k, v in env.items()))
    speeds = p.speed + (traced.speed if trace else [])
    lines.append(f"speed factor median {statistics.median(speeds)!r} "
                 f"(range {min(speeds):.3f} to {max(speeds):.3f})")
    for k, (v, unit) in metrics.items():
        lines.append(f"{k} {v!r} {unit}" + (f" (raw {raw[k][0]!r})" if raw[k][0] != v else ""))
    lines.append(f"failed_frac {failed / units!r} ratio ({failed} of {units} units; "
                 f"{p.total('wrong')} failed a check, {p.total('errors')} raised)")
    reasons = [r for o in p.outcomes for r in o.reasons]
    for reason in reasons[:5]:
        lines.append(f"  failure: {reason[:300]}")
    lines.append(f"event_log_sha256 {p.sha.hexdigest()} ({p.hashed} items)")
    result = {
        "correct": p.total("wrong") == 0,
        "attempted": units,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  environment=env, event_log_sha256=p.sha.hexdigest(), event_log_items=p.hashed)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    lines.append(f"result file {os.path.relpath(path, ROOT)}")
    return result, lines, tr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    result, lines, _ = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
