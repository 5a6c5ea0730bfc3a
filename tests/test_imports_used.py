"""Every name a package module imports is used in it: a name left behind by a
deleted caller (a second route that moved to ``verify``, say) is dead code
that still ties the modules together.  ``__init__`` re-exports and is left
out."""

import ast
from pathlib import Path

import ncbinom

PACKAGE = Path(ncbinom.__file__).resolve().parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    found = [f"{path.relative_to(PACKAGE)}:{line} {name}"
             for path in modules
             for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_an_unused_import_is_found():
    tree = ast.parse("from math import comb, factorial\nimport os.path\n"
                     "from .shuffle import coeff_closed_form as closed\n"
                     "print(factorial(3), os.sep)\n")
    assert _unused_imports(tree) == [(1, "comb"), (3, "closed")]
