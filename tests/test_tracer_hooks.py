"""The benchmark tracer's patch points exist in the package.

``perfbench/spans.py`` wraps dataclass fields and module-level callables
of etclab by name.  Installing and removing it here makes a renamed or
deleted patch point fail the test suite, not only a traced benchmark run.
"""

import dataclasses
import importlib.util
from pathlib import Path

import etclab

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
