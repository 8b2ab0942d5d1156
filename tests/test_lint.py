"""Static checks on the package source."""

import ast
from pathlib import Path

import cycshift

PACKAGE = Path(cycshift.__file__).parent


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so invariant checks must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
