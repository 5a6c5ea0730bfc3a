"""Every functools cache of ncbinom is a module-level global.

The benchmark's tracer (``perfbench/tracing.py``) finds caches by walking
the globals of the ncbinom modules: it clears them between traced jobs and
reports their entries as ``cache.entries``.  ``ncbinom.clear_caches()``,
which ``verify`` calls before each suite, walks the same globals.  A cache
kept elsewhere, say an ``lru_cache`` on a class attribute, would carry
results from one job into the next and be missing from the count, so new
caches go on module-level functions.
"""

import functools
import gc
import importlib
import pkgutil
import sys

import ncbinom
from ncbinom import cli

CACHE_TYPE = type(functools.lru_cache(maxsize=None)(len))


def _package_modules():
    return [mod for name, mod in sys.modules.items()
            if name == "ncbinom" or name.startswith("ncbinom.")]


def _package_caches():
    """Every functools cache object of ncbinom, found by the garbage collector."""
    for info in pkgutil.iter_modules(ncbinom.__path__, "ncbinom."):
        importlib.import_module(info.name)
    return [obj for obj in gc.get_objects()
            if isinstance(obj, CACHE_TYPE)
            and getattr(obj, "__module__", "").startswith("ncbinom")]


def test_every_cache_is_reachable_from_module_globals():
    caches = _package_caches()
    globals_ = {id(val) for mod in _package_modules() for val in vars(mod).values()}
    assert caches, "no cache found: the search itself is broken"
    hidden = [f"{c.__module__}.{c.__qualname__}" for c in caches if id(c) not in globals_]
    assert not hidden, f"caches not reachable from module globals: {hidden}"


def test_clear_caches_empties_every_cache(monkeypatch, capsys):
    caches = _package_caches()
    assert cli.main(["verify", "all", "--max-degree", "3"]) == 0
    capsys.readouterr()
    filled = [c for c in caches if c.cache_info().currsize]
    assert filled, "verify left no cache entries: the check below is vacuous"
    # reach one filled cache only through a functools.wraps wrapper, as the
    # benchmark's tracer does
    wrapped = filled[0]

    @functools.wraps(wrapped)
    def wrapper(*args, **kwargs):
        return wrapped(*args, **kwargs)
    for mod in _package_modules():
        for key, val in list(vars(mod).items()):
            if val is wrapped:
                monkeypatch.setattr(mod, key, wrapper)
    ncbinom.clear_caches()
    full = {f"{c.__module__}.{c.__qualname__}": c.cache_info().currsize
            for c in caches if c.cache_info().currsize}
    assert not full, f"caches left with entries: {full}"


def test_verify_runs_each_suite_from_empty_caches(capsys):
    caches = _package_caches()

    def entries_after(*suites):
        for suite in suites:
            assert cli.main(["verify", suite, "--max-degree", "3"]) == 0
        return sum(c.cache_info().currsize for c in caches)
    ncbinom.clear_caches()
    alone = entries_after("cyclotomic")
    assert alone > 0
    # theorem-a's entries are dropped when cyclotomic starts
    assert entries_after("theorem-a", "cyclotomic") == alone
