"""The package needs nothing beyond the standard library, numpy and scipy."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "etclab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _absolute_imports(path):
    """The top-level names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_numpy_and_scipy():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    outside = {
        f"{path.name}: {name}"
        for path in paths
        for name in _absolute_imports(path)
        if name not in ALLOWED
    }
    assert not outside, f"imports outside the standard library, numpy and scipy: {sorted(outside)}"


def test_an_import_of_another_package_is_reported(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os.path\nfrom . import x\nfrom numpy import linalg\nimport pandas as pd\n")
    assert [n for n in _absolute_imports(path) if n not in ALLOWED] == ["pandas"]
