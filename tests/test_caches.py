"""Every functools cache of ncbinom is a module-level global.

The benchmark's tracer (``perfbench/tracing.py``) finds caches by walking
the globals of the ncbinom modules: it clears them between traced jobs and
reports their entries as ``cache.entries``.  A cache kept elsewhere, say an
``lru_cache`` on a class attribute, would carry results from one job into
the next and be missing from the count, so new caches go on module-level
functions.
"""

import functools
import gc
import importlib
import pkgutil
import sys

import ncbinom

CACHE_TYPE = type(functools.lru_cache(maxsize=None)(len))


def test_every_cache_is_reachable_from_module_globals():
    for info in pkgutil.iter_modules(ncbinom.__path__, "ncbinom."):
        importlib.import_module(info.name)
    globals_ = {id(val) for name, mod in sys.modules.items()
                if name == "ncbinom" or name.startswith("ncbinom.")
                for val in vars(mod).values()}
    caches = [obj for obj in gc.get_objects()
              if isinstance(obj, CACHE_TYPE)
              and getattr(obj, "__module__", "").startswith("ncbinom")]
    assert caches, "no cache found: the search itself is broken"
    hidden = [f"{c.__module__}.{c.__qualname__}" for c in caches if id(c) not in globals_]
    assert not hidden, f"caches not reachable from module globals: {hidden}"
