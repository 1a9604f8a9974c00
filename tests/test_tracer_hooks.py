"""The benchmark tracer's patch points exist in the package.

``perfbench/spans.py`` wraps dataclass fields and module-level callables
of etclab by name.  Installing and removing it here makes a renamed or
deleted patch point fail the test suite, not only a traced benchmark run.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np

import etclab
from etclab import HybridState, SimSettings, TriggerConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_wraps_and_uninstalls(tabuada):
    spans = _load_spans()
    tracer = spans.Tracer()
    original = etclab.hybrid.event_function
    tracer.install(etclab)
    try:
        assert etclab.hybrid.event_function is not original
        sys, cert = tracer.wrap_loop(*tabuada)
        for name in spans.CERT_TERMS:
            assert getattr(cert, name) is not getattr(tabuada[1], name)
        assert dataclasses.fields(sys) == dataclasses.fields(tabuada[0])
    finally:
        tracer.uninstall()
    assert etclab.hybrid.event_function is original


def test_pure_event_run_reaches_the_event_and_certificate_patch_points(tabuada):
    # The planar workloads require calls at both points (a traced run raises
    # PatchPointMissing otherwise), so the event excess must keep calling the
    # certificate terms rather than bypass them.
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install(etclab)
    try:
        sys, cert = tracer.wrap_loop(*tabuada)
        q0 = HybridState(np.array([5.0, -1.0]), np.zeros(2), 0.0)
        cfg = TriggerConfig(mode="pure-event", sigma=0.7)
        sol = etclab.simulate(sys, cert, cfg, q0, SimSettings(step=1e-3, horizon_t=0.2))
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert sol.n_jumps > 0
    assert stats["trigger.event"][0] > 0
    assert stats["model.cert"][0] > 0


def test_designing_the_planar_loop_makes_three_traced_lyapunov_solves():
    # The planar and certify workloads require calls at linalg.solve_lyapunov.
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install(etclab)
    try:
        etclab.tabuada_loop()
    finally:
        tracer.uninstall()
    assert tracer.stats()["linalg.solve_lyapunov"][0] == 3


def test_traced_planar_loop_takes_the_untraced_path(tabuada):
    # The tracer's certificate is a copy with wrapped terms that keeps
    # lti_form.  Its form must still be accepted, so that a traced run times
    # the monitored blocks of an untraced one.
    spans = _load_spans()
    q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
    cfg = TriggerConfig(mode="pure-event", sigma=0.7)
    settings = SimSettings(step=1e-3, horizon_t=2.0)
    hybrid = etclab.hybrid

    def run(sys, cert):
        """The hex jump times and the number of monitored blocks (their clock has no end)."""
        with mock.patch.object(hybrid, "_block_clock", wraps=hybrid._block_clock) as clock:
            sol = etclab.simulate(sys, cert, cfg, q0, settings)
        return [t.hex() for t in sol.jump_times], sum(c.args[1] == math.inf
                                                      for c in clock.call_args_list)

    bare = run(*tabuada)
    tracer = spans.Tracer()
    tracer.install(etclab)
    try:
        traced = run(*tracer.wrap_loop(*tabuada))
    finally:
        tracer.uninstall()
    assert tracer.stats()["model.cert"][0] > 0
    assert traced == bare
    assert bare[1] >= len(bare[0]) >= 10


def test_traced_lorenz_run_calls_f_and_g_on_lists(lorenz):
    # The nonlinear path calls f and g through the loop's fields, so the
    # tracer's model.fg wrappers see every stage, on the body's float lists.
    spans = _load_spans()
    seen = set()

    def spy(fn):
        def call(x, e):
            seen.add((type(x), type(e)))
            return fn(x, e)

        return call

    sys, cert = lorenz
    sys = dataclasses.replace(sys, f=spy(sys.f), g=spy(sys.g))
    q0 = HybridState(np.array([1.0, -1.0, 2.0]), np.zeros(1), 0.0)
    cfg = TriggerConfig(mode="output-feedback", T=0.01)
    settings = SimSettings(step=1e-3, horizon_t=0.3)

    def run(sys, cert):
        return [t.hex() for t in etclab.simulate(sys, cert, cfg, q0, settings).jump_times]

    bare = run(sys, cert)
    tracer = spans.Tracer()
    tracer.install(etclab)
    try:
        traced = run(*tracer.wrap_loop(sys, cert))
    finally:
        tracer.uninstall()
    assert tracer.stats()["model.fg"][0] > 0
    assert traced == bare
    assert len(bare) >= 10
    assert seen == {(list, list)}
