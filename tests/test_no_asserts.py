"""The package keeps no `assert` statement: python -O strips them, so a
cross-check written as one would pass without checking.  Checks raise, or
return (False, detail) from a verify suite."""

import ast
from pathlib import Path

import ncbinom

PACKAGE = Path(ncbinom.__file__).resolve().parent


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
