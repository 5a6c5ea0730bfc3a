"""Every parameter of a package function is read in its body: a parameter
nothing reads is an option the caller sets and the code ignores (a word's
alphabet size, say, that no letter is ever checked against).  Lambdas and
``self`` are left out, since a callback and a method take what their
contract hands them."""

import ast
from pathlib import Path

import ncbinom

PACKAGE = Path(ncbinom.__file__).resolve().parent


def _unread_params(tree):
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)}
        found += [(fn.lineno, fn.name, p.arg) for p in params
                  if p.arg not in read and p.arg != "self"]
    return found


def test_every_parameter_is_read():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.relative_to(PACKAGE)}:{line} {name}({param})"
             for path in modules
             for line, name, param in _unread_params(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_an_unread_parameter_is_found():
    tree = ast.parse("def f(a, b=1, *rest, c, **kw):\n"
                     "    def g(x):\n"
                     "        return a\n"
                     "    return lambda d: kw\n"
                     "class C:\n"
                     "    def m(self, other):\n"
                     "        return self\n")
    assert _unread_params(tree) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "rest"),
                                    (2, "g", "x"), (6, "m", "other")]
