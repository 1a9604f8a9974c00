"""Every script under demos/ runs to completion, warnings failing it as elsewhere.

Each demo runs from a copy in tmp_path, so the files it writes next to
itself land there and not in demos/output/.  Demo 04 gets a run count of
4 instead of its default 200.
"""

import pathlib
import runpy
import shutil
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
ARGS = {"04_dwell_vs_pure_event.py": ["4"]}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    monkeypatch.setattr(sys, "argv", [str(script), *ARGS.get(name, [])])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
