"""The benchmark's four workloads, driven only through etclab's public API.

Each workload builds its loops and certificates once (set-up), turns
(seed, item index) into inputs, runs one item of work, and checks what
came back.  An item is one batch of runs on the planar workloads and one
unit everywhere else; the planar workloads count runs as units.
"""

import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STEP = 1e-3
EVENT_TOL = 1e-6
# The comparison-ODE parameters of the acceptance tests.
ZETA_THETA, ZETA_ETA = 1e-4, 1e-6

PLANAR_T = 0.075
PLANAR_SIGMA = 0.7
PLANAR_RADIUS = 100.0
PLANAR_HORIZON = 2.0

LORENZ_T = 0.01
LORENZ_RADIUS = 10.0
LORENZ_HORIZON = 1.0

CHECK_SAMPLES = 500
CHECK_RADIUS = 10.0
LORENZ_CHECK_RADIUS = 50.0
# One published-Lorenz unit, then static state feedback and observer-based
# output feedback on 2, 3 and 4 plant states.
CERTIFY_CYCLE = (("lorenz", 3),) + tuple(
    (kind, n) for n in (2, 3, 4) for kind in ("lti-sf", "lti-of")
)


def import_etclab():
    """Import etclab from this checkout's ``src`` directory and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "etclab", "__init__.py")):
        raise SystemExit(f"perfbench: no etclab sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import etclab

    found = os.path.dirname(os.path.dirname(os.path.abspath(etclab.__file__)))
    if found != src:
        raise SystemExit(f"perfbench: imported etclab from {found}, expected {src}")
    return etclab


@dataclass
class Outcome:
    """What one item produced: unit count, failures, event-log rows, counters."""

    units: int
    errors: int = 0  # units that raised or did not complete
    wrong: int = 0  # units whose output failed its check
    reasons: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def fail(self, n, reason, wrong=True):
        if wrong:
            self.wrong += n
        else:
            self.errors += n
        self.reasons.append(reason)


def _gap_rows(jump_times, gaps):
    # Rows (j, t_j, gap) for the jumps that close a positive gap, as run_batch logs them.
    offset = len(jump_times) - len(gaps)
    return [(i + 1 + offset, jump_times[i + offset], g) for i, g in enumerate(gaps)]


def _ball(rng, dim, radius):
    d = rng.standard_normal(dim)
    return (radius * rng.random() ** (1.0 / dim) / np.linalg.norm(d)) * d


def _item_rng(seed, i):
    return np.random.default_rng([seed, i])


class Planar:
    """Seeded batches on the planar state-feedback loop, reported to disk."""

    def __init__(self, name, mode, runs_per_item, min_items, items_per_s, trace_items_per_s,
                 must_call):
        self.name = name
        self.mode = mode
        self.runs_per_item = runs_per_item
        self.min_items = min_items
        self.items_per_s = items_per_s
        self.trace_items_per_s = trace_items_per_s
        self.must_call = must_call

    def setup(self, E, tr, out_dir=None):
        sys_, cert = E.tabuada_loop()
        if not PLANAR_T < E.trigger.masp(cert.gamma, cert.L):
            raise RuntimeError("planar dwell time is not below the MASP")
        sys_, cert = tr.wrap_loop(sys_, cert)
        T = 0.0 if self.mode == "pure-event" else PLANAR_T
        return {
            "E": E,
            "sys": sys_,
            "cert": cert,
            "trigger": E.TriggerConfig(mode=self.mode, T=T, sigma=PLANAR_SIGMA),
            "dwell": E.TriggerConfig(mode="state-feedback", T=PLANAR_T, sigma=PLANAR_SIGMA),
            "sim": E.SimSettings(step=STEP, horizon_t=PLANAR_HORIZON, event_tol=EVENT_TOL,
                                 record_states=False),
            "out_dir": out_dir,
        }

    def make_input(self, ctx, seed, i):
        batch_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        return ctx["E"].BatchSpec(
            n_runs=self.runs_per_item, radius=PLANAR_RADIUS, horizon_t=PLANAR_HORIZON,
            seed=batch_seed, trigger=ctx["trigger"], sim=ctx["sim"],
        )

    def reference(self, ctx, spec):
        """The dwell batch on the same initial conditions (pure-event check only)."""
        if self.mode != "pure-event":
            return None
        E = ctx["E"]
        return E.run_batch(ctx["sys"], ctx["cert"], replace(spec, trigger=ctx["dwell"])).tau_avg

    def run(self, ctx, spec, tr):
        E = ctx["E"]
        with tr.span("montecarlo.run_batch"):
            rep = E.run_batch(ctx["sys"], ctx["cert"], spec, n_workers=1)
        with tr.span("montecarlo.emit_report"):
            _summary, events_path = E.emit_report(rep, ctx["out_dir"])
        return rep, events_path

    def record(self, out):
        rep, _ = out
        return Outcome(
            units=rep.n_runs,
            rows=list(rep.events),
            counts={"hybrid.jumps": rep.n_events_total},
        )

    def check(self, oc, spec, out, ref):
        rep, events_path = out
        if rep.failures:
            oc.fail(len(rep.failures), f"runs {rep.failures} diverged", wrong=False)
        completed = rep.n_runs - len(rep.failures)
        with open(events_path) as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != len(rep.events):
            oc.fail(completed, f"events.csv has {n_rows} rows, expected {len(rep.events)}")
        elif self.mode == "pure-event":
            if not (rep.tau_min is not None and rep.tau_min < PLANAR_T and rep.tau_avg < ref):
                oc.fail(completed,
                        f"pure-event tau_min {rep.tau_min!r}, tau_avg {rep.tau_avg!r} vs dwell {ref!r}")
        elif rep.tau_min is None or abs(rep.tau_min - PLANAR_T) > 1e-4:
            oc.fail(completed, f"dwell tau_min {rep.tau_min!r} is not within 1e-4 of T")
        else:
            for r in rep.per_run:
                if r.min_gap is None or r.min_gap < PLANAR_T - EVENT_TOL:
                    oc.fail(1, f"run {r.run} has gap {r.min_gap!r} below T")


class LorenzMonitor:
    """One Lorenz run with recorded states, then the R envelope along it."""

    name = "lorenz-monitor"
    runs_per_item = 1
    min_items = 100
    items_per_s = 16.0
    trace_items_per_s = 2.5
    must_call = ("hybrid.simulate", "hybrid.r_monitor", "trigger.event", "model.cert",
                 "model.fg", "trigger.masp", "trigger.zeta_time")

    def setup(self, E, tr, out_dir=None):
        sys_, cert = E.lorenz_loop()
        zp = E.ZetaParams(theta=ZETA_THETA, eta=ZETA_ETA)
        with tr.span("trigger.zeta_time"):
            transit = E.zeta_time(cert.gamma, cert.L, zp)
        if not LORENZ_T < transit:
            raise RuntimeError(f"Lorenz T = {LORENZ_T} is not below zeta_time = {transit!r}")
        sys_, cert = tr.wrap_loop(sys_, cert)
        return {
            "E": E,
            "sys": sys_,
            "cert": cert,
            "zp": zp,
            "trigger": E.TriggerConfig(mode="output-feedback", T=LORENZ_T),
            "sim": E.SimSettings(step=STEP, horizon_t=LORENZ_HORIZON, event_tol=EVENT_TOL,
                                 record_states=True),
        }

    def make_input(self, ctx, seed, i):
        z = _ball(_item_rng(seed, i), 4, LORENZ_RADIUS)
        return ctx["E"].HybridState(x=z[:3], e=z[3:], tau=0.0)

    def reference(self, ctx, q0):
        return None

    def run(self, ctx, q0, tr):
        E = ctx["E"]
        with tr.span("hybrid.simulate"):
            sol = E.simulate(ctx["sys"], ctx["cert"], ctx["trigger"], q0, ctx["sim"])
        with tr.span("hybrid.r_monitor"):
            r = E.r_monitor(sol, ctx["cert"], ctx["zp"])
        return sol, r

    def probes(self, ctx, seed, n):
        """Untraced micro-timings: recording states on versus off, and one flow step."""
        E = ctx["E"]
        sims = (ctx["sim"], replace(ctx["sim"], record_states=False))
        elapsed = [0, 0]
        for i in range(n):
            q0 = self.make_input(ctx, seed, i)
            for k, sim in enumerate(sims):  # interleaved, so drift hits both alike
                t0 = time.perf_counter_ns()
                E.simulate(ctx["sys"], ctx["cert"], ctx["trigger"], q0, sim)
                elapsed[k] += time.perf_counter_ns() - t0
        sol = E.simulate(ctx["sys"], ctx["cert"], ctx["trigger"], self.make_input(ctx, seed, 0),
                         sims[0])
        states = [E.HybridState(s.x[k], s.e[k], float(s.tau[k]))
                  for s in sol.segments for k in range(0, s.t.size, 5)]
        per_call_us = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for q in states:
                E.flow_step(ctx["sys"], q, STEP)
            per_call_us.append((time.perf_counter_ns() - t0) / len(states) / 1e3)
        return {
            "hybrid.record_overhead_frac": elapsed[0] / elapsed[1] - 1.0,
            "hybrid.flow_step_us": statistics.median(per_call_us),
        }

    def record(self, out):
        sol, _ = out
        return Outcome(
            units=1,
            rows=_gap_rows(sol.jump_times, sol.inter_event_gaps),
            counts={
                "hybrid.jumps": sol.n_jumps,
                "hybrid.recorded_samples": sum(s.t.size for s in sol.segments),
            },
        )

    def check(self, oc, q0, out, ref):
        sol, r = out
        gaps = sol.inter_event_gaps
        final = sol.final_state()
        if gaps and min(gaps) < LORENZ_T - EVENT_TOL:
            oc.fail(1, f"gap {min(gaps)!r} below T")
        elif final is None or not np.all(np.isfinite(final.x)):
            oc.fail(1, "final state is not finite")
        elif not all(math.isfinite(v[2]) for v in r):
            oc.fail(1, "R envelope is not finite")


class Certify:
    """Random stabilised LTI loops through design and sampled check; the Lorenz falsifier."""

    name = "certify"
    runs_per_item = 1
    min_items = 100
    items_per_s = 16.0
    trace_items_per_s = 2.0
    must_call = ("lti.assemble", "lti.design_certificate", "lti.extract_assumption",
                 "linalg.solve_lyapunov", "systems.check", "sampling.uniform_ball",
                 "model.cert", "model.fg", "trigger.masp", "trigger.zeta_time")

    def setup(self, E, tr, out_dir=None):
        lsys, lcert = E.lorenz_loop()
        return {
            "E": E,
            "lorenz": tr.wrap_loop(lsys, lcert),
            "zp": E.ZetaParams(theta=ZETA_THETA, eta=ZETA_ETA),
        }

    def make_input(self, ctx, seed, i):
        # Units cycle through a fixed mix so that every run, whatever its
        # length or seed, does nearly the same work; the matrices are random.
        kind, n = CERTIFY_CYCLE[i % len(CERTIFY_CYCLE)]
        rng = _item_rng(seed, i)
        check_seed = int(rng.integers(2**31))
        if kind == "lorenz":
            return kind, None, check_seed
        while True:
            try:
                return kind, _lqr_loop(rng, n, kind == "lti-of"), check_seed
            except (np.linalg.LinAlgError, ValueError):
                continue  # a draw the Riccati solver rejects is redrawn

    def reference(self, ctx, inp):
        return None

    def run(self, ctx, inp, tr):
        E = ctx["E"]
        kind, mats, check_seed = inp
        if kind == "lorenz":
            sys_, cert = ctx["lorenz"]
            with tr.span("systems.check"):
                rep = E.check_assumption_sampled(sys_, cert, n_samples=CHECK_SAMPLES,
                                                 radius=LORENZ_CHECK_RADIUS, seed=check_seed)
            return rep, None
        (A, B, C), (Ac, Bc, Cc, Dc) = mats
        plant = E.LtiPlant(A=A, B=B, C=C)
        ctrl = E.LtiController(A=Ac, B=Bc, C=Cc, D=Dc)
        with tr.span("lti.assemble"):
            clm = E.assemble(plant, ctrl)
        with tr.span("lti.design_certificate"):
            cand = E.design_certificate(clm)
        with tr.span("lti.extract_assumption"):
            cert = E.extract_assumption(clm, cand)
        sys_, cert = tr.wrap_loop(E.lti_loop(plant, ctrl, cert), cert)
        with tr.span("systems.check"):
            rep = E.check_assumption_sampled(sys_, cert, n_samples=CHECK_SAMPLES,
                                             radius=CHECK_RADIUS, seed=check_seed)
        ceiling = E.trigger.masp(cert.gamma, cert.L)
        with tr.span("trigger.zeta_time"):
            transit = E.zeta_time(cert.gamma, cert.L, ctx["zp"])
        return rep, (cert.gamma, cert.L, ceiling, transit)

    def record(self, out):
        rep, gains = out
        row = tuple(rep.max_violation[k] for k in rep.INEQUALITIES) + (rep.n_skipped,)
        return Outcome(
            units=1,
            rows=[(gains or ()) + row],
            counts={"systems.samples": rep.n_samples, "systems.skipped": rep.n_skipped},
        )

    def check(self, oc, inp, out, ref):
        rep, gains = out
        if inp[0] == "lorenz":
            if not rep.violation_excess("v-decay") > 0:
                oc.fail(1, "published Lorenz certificate passed v-decay")
            return
        _gamma, _L, ceiling, transit = gains
        if not rep.passed:
            oc.fail(1, f"designed certificate failed its sampled check: {rep.summary()}")
        elif not 0.0 < transit < ceiling:
            oc.fail(1, f"zeta_time {transit!r} not in (0, masp = {ceiling!r})")


def _lqr_loop(rng, n, output_feedback):
    """A random n-state plant with an LQR state feedback or an observer-based controller."""
    m = int(rng.integers(1, 3))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    K = B.T @ scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(m))
    if not output_feedback:
        return (A, B, np.eye(n)), (np.zeros((0, 0)), np.zeros((0, n)), np.zeros((m, 0)), -K)
    p = int(rng.integers(1, 3))
    C = rng.standard_normal((p, n))
    Lo = scipy.linalg.solve_continuous_are(A.T, C.T, np.eye(n), np.eye(p)) @ C.T
    return (A, B, C), (A - B @ K - Lo @ C, Lo, -K, np.zeros((m, p)))


PLANAR_MUST_CALL = ("hybrid.simulate", "montecarlo.run_batch", "montecarlo.emit_report",
                    "montecarlo.sample_initial", "sampling.uniform_ball", "trigger.event",
                    "model.cert", "trigger.masp", "lti.assemble", "lti.design_certificate",
                    "linalg.solve_lyapunov")

# An untraced run does max(min_items, seconds * items_per_s) items; the
# rates are what each workload manages at the reference speed (speed.py),
# so a 12 s run takes about 12 s of unit time there.  Batch sizes give
# such a run 84 and 132 batches, so that the 90th percentile of batch
# latency has eight or more samples beyond it.
WORKLOADS = {
    w.name: w
    for w in (
        Planar("planar-dwell", "state-feedback", runs_per_item=8, min_items=20,
               items_per_s=7.0, trace_items_per_s=1.0, must_call=PLANAR_MUST_CALL),
        Planar("planar-pure-event", "pure-event", runs_per_item=2, min_items=20,
               items_per_s=11.0, trace_items_per_s=1.6, must_call=PLANAR_MUST_CALL),
        LorenzMonitor(),
        Certify(),
    )
}
