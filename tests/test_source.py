import ast
from pathlib import Path

import diffusim

SOURCES = sorted(Path(diffusim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no guarantee may rest on one
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def _imports_continuous(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module in ("continuous", "diffusim.continuous") or (
            node.module in (None, "diffusim") and any(a.name == "continuous" for a in node.names))
    return isinstance(node, ast.Import) and any(a.name == "diffusim.continuous" for a in node.names)


def test_only_the_package_imports_continuous():
    # continuous.py keeps continuous_run for the package's public names; the
    # library steps the oracle with matrices.power_apply and takes
    # convergence_time from analysis
    found = [path.name for path in SOURCES
             if any(_imports_continuous(node) for node in ast.walk(ast.parse(path.read_text())))]
    assert found == ["__init__.py"]
