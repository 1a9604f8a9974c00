"""Command-line front end: config parsing, subcommands, artifact emission.

Subcommands:

    masp      print the dwell-time ceiling for gains (--gamma, --L)
    design    run the constructive LTI design, emit a certificate JSON
    check     sampled certificate verification; exit 0 iff it passes
    simulate  one closed-loop run; states/events/R-monitor/plot CSVs
    batch     seeded batch of runs; summary JSON + events CSV

Exit codes: 0 success, 1 domain or validation error, 2 divergence.
A config is one JSON object (schema documented in the README):
``load_config`` parses it, the commands lay their flags over it, and
``Resolved`` validates each section once and builds its typed object.
The environment variable ETC_LAB_SEED overrides the config seed.
Display output rounds to 4 decimal digits; files carry full precision
(every CSV goes through ``montecarlo.write_csv``).
"""

import argparse
import inspect
import json
import os
import sys
from typing import Optional

import numpy as np

from .errors import CertificateError, ConfigError, DimensionError, DivergenceError, EtcLabError
from .hybrid import HybridSolution, SimSettings, r_monitor, simulate
from .lti import LmiCertificate, LtiController, LtiPlant, assemble, design_certificate, extract_assumption
from .model import HybridState
from .montecarlo import EVENTS_HEADER, BatchSpec, emit_report, run_batch, sample_initial, write_csv
from .systems import (
    BUILTIN_LOOPS,
    TABUADA_EPS2,
    check_assumption_sampled,
    lti_loop_from_matrices,
    tabuada_matrices,
)
from .trigger import TriggerConfig, ZetaParams, masp, zeta_time

SEED_ENV_VAR = "ETC_LAB_SEED"

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_DIVERGED = 2


def _display(v):
    return f"{v:.4f}"


def load_config(path) -> dict:
    """The config document at ``path``, UTF-8 JSON (RFC 8259), parsed but not yet validated."""
    try:
        with open(path, encoding="utf-8") as fh:  # not the locale's encoding
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:  # the parser recurses once per nested list or object
        raise ConfigError(f"{path}: JSON nests too deep to parse") from None
    if not isinstance(raw, dict):  # the commands lay their flags over it
        raise ConfigError(f"config: expected an object, got {type(raw).__name__}")
    return raw


_SECTIONS = ("system", "certificate", "trigger", "sim", "batch", "initial", "zeta", "output_dir")

# JSON values accepted for a parameter annotation, never a bool; for a matrix
# or vector, each leaf of its nested lists, the shape left to the constructor.
_JSON_KINDS = {float: (int, float), Optional[float]: (int, float, type(None)), int: (int,)}
_JSON_KINDS[np.ndarray] = _JSON_KINDS[float]


def _leaves(v):
    """The values in v that are not lists, in order: v itself, or the leaves of nested lists."""
    todo = [v]
    while todo:  # not recursive: a loaded JSON list can nest almost as deep as the recursion limit
        u = todo.pop()
        if isinstance(u, list):
            todo.extend(reversed(u))
        else:
            yield u


def _check_keys(d, where, required, allowed):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown}")
    for k in required:
        if k not in d:
            raise ConfigError(f"{where}: missing field {k!r}")


def _build(ctor, d, section, defaults=None, **fixed):
    """``ctor(**d)`` with d checked against the signature and annotations of ctor.

    ``defaults`` fill keys that d lacks; ``fixed`` arguments are not config
    fields.  Constructor errors become ConfigError naming the section.
    """
    where = f"config.{section}"
    defaults = defaults or {}
    params = inspect.signature(ctor).parameters
    allowed = [n for n in params if n not in fixed]
    required = [n for n in allowed if params[n].default is params[n].empty and n not in defaults]
    _check_keys(d, where, required, allowed)
    for k, v in d.items():
        kinds = _JSON_KINDS.get(params[k].annotation, (object,))
        for u in _leaves(v) if params[k].annotation is np.ndarray else [v]:
            if isinstance(u, bool) or not isinstance(u, kinds):
                raise ConfigError(f"{where}: field {k!r} has the wrong type {type(u).__name__}")
    try:
        return ctor(**{**defaults, **d}, **fixed)
    except (TypeError, KeyError, ValueError, EtcLabError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _design_eps(eps1: float = 1e-2, eps2: float = 1e-2):
    return {"eps1": eps1, "eps2": eps2}


class Resolved:
    """A config document with every section validated once and built into its typed object.

    ``clm`` and ``eps`` are the closed-loop blocks and design weights of an
    LTI system (a built-in's are those of its certificate; None and the
    defaults otherwise); ``certificate`` is an
    inline certificate, None for "auto".  ``output_dir`` is the config's
    output directory (``--output-dir`` replaces it).  ``run`` marks a command that
    simulates, which requires config.trigger.  ETC_LAB_SEED, when set,
    replaces the batch seed.  ``ball`` is the batch section, checked in every
    command; ``batch()`` folds config.sim into it, as the batch's runs get it.
    """

    def __init__(self, doc, run=False):
        _check_keys(doc, "config", ["system"], _SECTIONS)
        cert_doc = doc.get("certificate", "auto")
        if cert_doc != "auto" and not isinstance(cert_doc, dict):
            raise ConfigError("config.certificate: expected \"auto\" or an object")
        self.output_dir = doc.get("output_dir", "out")
        if not isinstance(self.output_dir, str):
            raise ConfigError("config.output_dir: expected a string")
        spec = doc["system"]
        if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
            raise ConfigError("config.system: expected an object with a string field 'name'")
        self.system = spec["name"]
        self.params = spec.get("params", {})
        self.clm, self.eps = None, _design_eps()
        if self.system == "lti-sf-tabuada":
            self.clm, self.eps = tabuada_matrices(), _design_eps(0.0, TABUADA_EPS2)
        if self.system == "lti-custom":
            _check_keys(spec, "config.system", ["plant", "controller"],
                        ["name", "plant", "controller", "design"])
            plant = _build(LtiPlant, spec["plant"], "system.plant")
            ctrl = _build(LtiController, spec["controller"], "system.controller")
            try:
                self.clm = assemble(plant, ctrl)
            except (DimensionError, ValueError) as exc:
                raise ConfigError(f"config.system: {exc}") from None
            self.eps = _build(_design_eps, spec.get("design", {}), "system.design")
        elif self.system in BUILTIN_LOOPS:
            _check_keys(spec, "config.system", [], ["name", "params"])
        else:
            raise ConfigError(
                f"config.system: unknown system name {self.system!r}, expected "
                f"'lti-custom' or one of {sorted(BUILTIN_LOOPS)}"
            )

        self.certificate = None
        if cert_doc != "auto":
            if self.system != "lti-custom":
                raise ConfigError(
                    f"config.certificate: built-in system {self.system!r} carries its own "
                    "certificate; set certificate to \"auto\""
                )
            self.certificate = _build(LmiCertificate, cert_doc, "certificate")
        trigger = doc.get("trigger", {})
        self.trigger = None
        if run or trigger != {}:
            self.trigger = _build(TriggerConfig, trigger, "trigger")
        self.sim = _build(SimSettings, doc.get("sim", {}), "sim", record_states=True)
        env = os.environ.get(SEED_ENV_VAR)
        try:
            seed = None if env is None else int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
        self._batch = (_override(doc.get("batch", {}), seed=seed), "batch",
                       {"n_runs": 100, "radius": 25.0, "horizon_t": self.sim.horizon_t, "seed": 0})
        self.ball = _build(BatchSpec, *self._batch, trigger=None, sim=None)
        self.initial = None
        if doc.get("initial") is not None:
            self.initial = _build(HybridState, doc["initial"], "initial", tau=0.0)
        zeta = doc.get("zeta")
        zeta = {"theta": 0.01, "eta": 0.01} if zeta is None else zeta
        self.zeta = _build(ZetaParams, zeta, "zeta")

    def batch(self):
        return _build(BatchSpec, *self._batch, trigger=self.trigger, sim=self.sim)

    def loop(self):
        """(system, certificate): a built-in benchmark, or the LTI loop with its
        inline certificate or one designed with ``eps``."""
        if self.system != "lti-custom":
            return _build(BUILTIN_LOOPS[self.system], self.params, "system.params")
        if self.certificate is None:
            cert = extract_assumption(self.clm, design_certificate(self.clm, **self.eps))
        else:
            try:
                cert = extract_assumption(self.clm, self.certificate)
            except (CertificateError, DimensionError) as exc:
                raise ConfigError(f"config.certificate: {exc}") from None
        return lti_loop_from_matrices(self.clm, name=self.system), cert


def _config_of(args) -> dict:
    if args.config:
        return load_config(args.config)
    if getattr(args, "system", None):
        return {"system": {"name": args.system}}
    raise ConfigError(f"{args.command} requires --config or --system")


def _override(section, **values):
    """``section`` with the command-line values that were given laid over it."""
    values = {k: v for k, v in values.items() if v is not None}
    return {**section, **values} if values and isinstance(section, dict) else section


def _gains(cert):
    return (
        f"gamma = {_display(cert.gamma)}, L = {_display(cert.L)}, "
        f"T_max = {_display(masp(cert.gamma, cert.L))}"
    )


def emit_plot_data(sol: HybridSolution, path, t_ref) -> str:
    """Write stem-plot data: one row per gap, with the reference dwell time.

    Columns: event_index, t_j, gap, T_ref.  A solution without events
    produces a header-only file.
    """
    rows = ((i, t_j, gap, t_ref) for i, (_j, t_j, gap) in enumerate(sol.gap_rows(), 1))
    write_csv(path, ["event_index", "t_j", "gap", "T_ref"], rows)
    return path


def _cmd_masp(args):
    print(_display(masp(args.gamma, args.L)))
    return _EXIT_OK


def _cmd_design(args):
    r = Resolved(_config_of(args))
    if r.clm is None:
        raise ConfigError(f"design expects an LTI system, got {r.system!r}")
    eps = _override(r.eps, eps1=args.eps1, eps2=args.eps2)
    cand = design_certificate(r.clm, **eps)
    cert = extract_assumption(r.clm, cand)
    doc = {
        "P": [[float(v) for v in row] for row in cand.P],
        "eps1": cand.eps1,
        "eps2": cand.eps2,
        "mu": cand.mu,
        "gamma": cert.gamma,
        "L": cert.L,
        "T_max": masp(cert.gamma, cert.L),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(_gains(cert), file=sys.stderr)
    return _EXIT_OK


def _cmd_check(args):
    loop, cert = Resolved(_config_of(args)).loop()
    report = check_assumption_sampled(
        loop, cert, n_samples=args.samples, radius=args.radius, seed=args.seed
    )
    print(report.summary())
    print("PASS" if report.passed else "FAIL")
    return _EXIT_OK if report.passed else _EXIT_INVALID


def _cmd_simulate(args):
    doc = _config_of(args)
    trigger = doc.get("trigger", {})
    # --mode drops the config's T or sigma that its mode rejects; --T or --sigma still sets it.
    drop = {"pure-event": "T", "output-feedback": "sigma", "periodic": "sigma"}.get(args.mode)
    if isinstance(trigger, dict) and drop in trigger:
        trigger = {k: v for k, v in trigger.items() if k != drop}
    trigger = _override(trigger, T=args.T, mode=args.mode, sigma=args.sigma)
    r = Resolved(_override(doc, trigger=trigger), run=True)
    loop, cert = r.loop()
    q0 = r.initial
    if q0 is None:
        q0 = sample_initial(r.ball, 0, loop.n_x, loop.n_e)

    sol = simulate(loop, cert, r.trigger, q0, r.sim)

    monitored = r.trigger.T < zeta_time(cert.gamma, cert.L, r.zeta)
    if not monitored:
        print(
            "warning: dwell time is not below the zeta transit time; "
            "R-monitor output is empty",
            file=sys.stderr,
        )

    outdir = r.output_dir if args.output_dir is None else args.output_dir
    columns = [f"x{i}" for i in range(loop.n_x)] + [f"e{i}" for i in range(loop.n_e)]
    try:
        os.makedirs(outdir, exist_ok=True)
        write_csv(
            os.path.join(outdir, "states.csv"), ["t", "j", *columns, "tau"],
            ([seg.t[i], seg.j, *seg.x[i], *seg.e[i], seg.tau[i]]
             for seg in sol.segments for i in range(seg.t.size)),
        )
        write_csv(os.path.join(outdir, "events.csv"), EVENTS_HEADER,
                  [(0,) + row for row in sol.gap_rows()])
        emit_plot_data(sol, os.path.join(outdir, "plot.csv"), r.trigger.T)
        write_csv(
            os.path.join(outdir, "rmonitor.csv"), ["t", "j", "R"],
            r_monitor(sol, cert, r.zeta) if monitored else [],
        )
    except OSError as exc:
        raise OSError(f"failed to write outputs under {os.fspath(outdir)!r}: {exc}") from exc

    gaps = sol.inter_event_gaps
    print(_gains(cert))
    print(f"jumps: {sol.n_jumps}, terminated: {sol.terminated}")
    if gaps:
        print(
            f"gap min/avg/max: {_display(min(gaps))}/"
            f"{_display(float(np.mean(gaps)))}/{_display(max(gaps))}"
        )
    return _EXIT_OK


def _cmd_batch(args):
    doc = load_config(args.config)
    batch = _override(doc.get("batch", {}), n_runs=args.runs)
    r = Resolved(_override(doc, batch=batch), run=True)
    loop, cert = r.loop()
    report = run_batch(loop, cert, r.batch())
    outdir = r.output_dir if args.output_dir is None else args.output_dir
    summary_path, events_path = emit_report(report, outdir)
    tau_min = "n/a" if report.tau_min is None else _display(report.tau_min)
    tau_avg = "n/a" if report.tau_avg is None else _display(report.tau_avg)
    print(
        f"runs: {report.n_runs}, events: {report.n_events_total}, "
        f"tau_min: {tau_min}, tau_avg: {tau_avg}, failures: {len(report.failures)}"
    )
    print(f"wrote {summary_path} and {events_path}")
    return _EXIT_DIVERGED if report.failures else _EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="etclab",
        description="Event-triggered control with an enforced minimum "
        "inter-transmission time: design, certification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("masp", help="print the dwell-time ceiling for (gamma, L)")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.set_defaults(func=_cmd_masp)

    p = sub.add_parser("design", help="constructive LTI certificate design")
    p.add_argument("--config")
    p.add_argument("--system", default="lti-sf-tabuada")
    p.add_argument("--eps1", type=float)  # default: system.design or the built-in's, else 1e-2
    p.add_argument("--eps2", type=float)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("check", help="sampled certificate verification")
    p.add_argument("--config")
    p.add_argument("--system", default="lti-sf-tabuada")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--radius", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="simulate one closed-loop run")
    p.add_argument("--config")
    p.add_argument("--system")
    p.add_argument("--T", type=float)
    p.add_argument("--mode")
    p.add_argument("--sigma", type=float)
    p.add_argument("--output-dir")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("batch", help="run a seeded batch and emit its report")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.add_argument("--runs", type=int)
    p.set_defaults(func=_cmd_batch)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_INVALID if exc.code else _EXIT_OK
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: simulation diverged: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except (EtcLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
