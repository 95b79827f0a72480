import ast
from pathlib import Path

import diffusim
from diffusim import errors

SOURCES = sorted(Path(diffusim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no guarantee may rest on one
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_every_raise_names_a_diffusim_error():
    # every failure leaves by a DiffusimError and its exit code; SystemExit is
    # the CLI's usage exit, and a bare raise re-raises what was caught
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else exc.id
                cls = getattr(errors, name, None)
                named = isinstance(cls, type) and issubclass(cls, errors.DiffusimError)
                if not named and name != "SystemExit":
                    found.append(f"{path.name}:{node.lineno} {name}")
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
