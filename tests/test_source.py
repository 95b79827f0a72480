import ast
from pathlib import Path

import diffusim

SOURCES = sorted(Path(diffusim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no guarantee may rest on one
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
