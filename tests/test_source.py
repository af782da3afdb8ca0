"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "primroot"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
