"""The package names and keywords that the benchmark's files use exist.

The files under ``perfbench/`` reach the package as ``E`` (or
``ctx["E"]``).  Every attribute chain they read from it must resolve on
etclab, and every keyword they pass to such a callable must be in its
signature, so that removing or renaming public surface fails the test
suite rather than only a benchmark run.
"""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import etclab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_package(node):
    if isinstance(node, ast.Name):
        return node.id == "E"
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ctx"
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "E"
    )


def _chain(node):
    """The attribute names of ``E.a.b`` as ("a", "b"), or None if not rooted at E."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return tuple(reversed(names)) if names and _is_package(node) else None


def _uses():
    """{(file, chain): set of keywords passed when the chain is called}."""
    uses = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            chain = _chain(node)
            if chain is not None:
                uses.setdefault((path.name, chain), set())
            called = _chain(node.func) if isinstance(node, ast.Call) else None
            if called is not None:
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                uses.setdefault((path.name, called), set()).update(keywords)
    return uses


USES = _uses()


def _resolve(chain):
    obj = etclab
    for name in chain:
        obj = getattr(obj, name)
    return obj


def test_the_benchmark_reads_the_package():
    chains = {chain for _file, chain in USES}
    # The walk sees both spellings of the package handle.
    assert ("BatchSpec",) in chains and ("run_batch",) in chains
    assert ("trigger", "masp") in chains


@pytest.mark.parametrize(
    "where, chain", sorted(USES), ids=[f"{f}:{'.'.join(c)}" for f, c in sorted(USES)]
)
def test_chain_resolves_and_accepts_its_keywords(where, chain):
    try:
        obj = _resolve(chain)
    except AttributeError:
        pytest.fail(f"{where} reads etclab.{'.'.join(chain)}, which does not exist")
    keywords = USES[(where, chain)]
    if not keywords:
        return
    params = inspect.signature(obj).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return
    unknown = sorted(keywords - set(params))
    assert not unknown, f"{where} passes {unknown} to etclab.{'.'.join(chain)}"


def test_benchmark_selftest_passes():
    # Every workload at a tiny size, untraced and traced; it writes only to
    # the git-ignored .perfbench_out/.
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout.splitlines()
