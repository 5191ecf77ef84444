"""No verdict may depend on ``python -O``: the package states every check as
a value or a raised error, never as an ``assert`` statement, which ``-O``
strips."""

import ast
from pathlib import Path

import ccdlab

PACKAGE = Path(ccdlab.__file__).parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
