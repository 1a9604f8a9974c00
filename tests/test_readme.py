"""The README's examples stay true.

Its Python quick start runs and prints what its comments state, to the
digits they show, and each `etclab masp` example prints the value the
README gives for it.
"""

import pathlib
import re

from etclab.cli import dispatch

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _shown_as(value, stated):
    """value formatted with as many decimals as the stated number shows."""
    return f"{value:.{len(stated.partition('.')[2])}f}"


def test_quick_start_prints_what_its_comments_state(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    stated = re.findall(r"^print\(.*\)\s+# ([\d.]*\d)", block, re.M)
    assert len(stated) == len(printed) == 2
    for out, want in zip(printed, stated):
        assert _shown_as(float(out), want) == want


def test_masp_examples_print_the_stated_values(capsys):
    examples = re.findall(
        r"etclab\s+masp\s+--gamma\s+(\S+)\s+--L\s+([^\s`]+)`?\s+(?:#\s+)?prints\s+([\d.]*\d)", README
    )
    assert sorted(want for _g, _l, want in examples) == ["0.0170", "0.0790", "21.4164"]
    for gamma, L, want in examples:
        assert dispatch(["masp", "--gamma", gamma, "--L", L]) == 0
        assert capsys.readouterr().out == want + "\n"
