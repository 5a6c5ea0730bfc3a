"""Spans and counters around the public functions of ncbinom, from outside it.

``Tracer.install`` replaces each target function with a wrapper wherever the
package holds a reference to it: in its defining module, in every module
that imported it by name, and under every class attribute bound to it (so
``QPoly.__rmul__``, an alias of ``__mul__``, is traced too).  ``uninstall``
puts the originals back.

A wrapper for a timed function records a span (name, parent, start, end)
and adds to the function's inclusive time and to its layer's self time: the
span's duration minus the time covered by the spans nested in it.  A call
made while a span of the same name is open (recursion) is counted but not
timed again, so inclusive time counts each interval once.  Functions called
very often are marked hot: they add to the totals but keep no span record.
The layer of a span is the part of its name before the dot.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "words", "freepoly", "pbw", "shuffle", "rings", "bell", "qsigma",
          "quotients", "identities", "emit", "verify")

# (module, attribute, span or counter name, kind); kind is "span", "hot" or "count".
TARGETS = [
    ("ncbinom.cli", "parse_expression", "cli.parse_expression", "span"),
    ("ncbinom.words", "cfl_factorize", "words.cfl_factorize_calls", "count"),
    ("ncbinom.words", "lyndon_enumerate", "words.lyndon_enumerate", "span"),
    ("ncbinom.freepoly", "FreePoly.__mul__", "freepoly.mul", "hot"),
    ("ncbinom.freepoly", "sh_multidegree", "freepoly.sh_multidegree", "span"),
    ("ncbinom.pbw", "enumerate_pbw_monomials", "pbw.enumerate_pbw_monomials", "span"),
    ("ncbinom.pbw", "pbw_rewrite", "pbw.pbw_rewrite", "span"),
    ("ncbinom.pbw", "monomial_from_word", "pbw.words_eliminated", "count"),
    ("ncbinom.pbw", "pbw_expand_monomial", "pbw.pbw_expand_monomial", "hot"),
    ("ncbinom.pbw", "reduce_mod_p", "pbw.reduce_mod_p", "span"),
    ("ncbinom.shuffle", "sh_closed_form", "shuffle.sh_closed_form", "span"),
    ("ncbinom.shuffle", "coeff_closed_form", "shuffle.coeff_closed_form", "hot"),
    ("ncbinom.shuffle", "sh_pbw", "shuffle.sh_pbw", "span"),
    ("ncbinom.rings", "ModInt.__init__", "rings.modint_new", "count"),
    ("ncbinom.rings", "_is_prime", "rings.is_prime", "hot"),
    ("ncbinom.rings", "QPoly.__mul__", "rings.qpoly_mul", "hot"),
    ("ncbinom.rings", "qpoly_exact_div", "rings.qpoly_exact_div", "hot"),
    ("ncbinom.bell", "bell_partial", "bell.bell_partial", "span"),
    ("ncbinom.bell", "bell_dual", "bell.bell_dual", "span"),
    ("ncbinom.qsigma", "qbell", "qsigma.qbell", "span"),
    ("ncbinom.qsigma", "ore_binomial", "qsigma.ore_binomial", "span"),
    ("ncbinom.qsigma", "sh_hat_apply", "qsigma.sh_hat_apply", "span"),
    ("ncbinom.quotients", "weyl_binomial", "quotients.weyl_binomial", "span"),
    ("ncbinom.quotients", "lie_ideal_closure", "quotients.lie_ideal_closure", "span"),
    ("ncbinom.quotients", "blumen_binomial", "quotients.blumen_binomial", "span"),
    ("ncbinom.quotients", "blumen_normalize", "quotients.blumen_normalize", "span"),
    ("ncbinom.quotients", "qcomm_bell_recursive", "quotients.qcomm_bell_recursive", "span"),
    ("ncbinom.quotients", "qcomm_bell_closed", "quotients.qcomm_bell_closed", "span"),
    ("ncbinom.identities", "faa_di_bruno_check", "identities.faa_di_bruno_check", "span"),
    ("ncbinom.identities", "q_binomial_theorem_check", "identities.q_binomial_theorem_check",
     "span"),
    ("ncbinom.identities", "qbinom_cyclotomic_vanish", "identities.qbinom_cyclotomic_vanish",
     "span"),
    ("ncbinom.emit", "emit", "emit.emit", "span"),
]

# words.cfl_factorize_calls counts every call; pbw.words_eliminated only calls
# made inside pbw_rewrite.
COUNT_WHEN = {"pbw.words_eliminated": "pbw.pbw_rewrite"}


def _resolve(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ncbinom" or name.startswith("ncbinom."))]


def lru_caches():
    """Every functools cache object reachable from ncbinom's module globals."""
    seen = {}
    for mod in package_modules():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_info", None)) and hasattr(val, "cache_clear"):
                seen[id(val)] = val
    return list(seen.values())


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or None, start, end]
        self.stack = []          # open frames: [covered child time, span index]
        self.open = set()        # names with an open span
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.monomials = 0       # PBW monomials returned by enumerate_pbw_monomials
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, hot):
        layer = name.partition(".")[0]
        clock, stack, spans, opened = time.perf_counter, self.stack, self.spans, self.open
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in opened:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            if hot:
                index = parent
            else:
                index = len(spans)
                spans.append([name, parent, 0.0, 0.0])
            frame = [0.0, index]
            stack.append(frame)
            opened.add(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                opened.discard(name)
                stack.pop()
                duration = end - start
                inclusive[name] += duration
                self_time[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    spans[index][2:] = [start, end]
        return wrapper

    def _counted(self, name, fn):
        calls, opened, when = self.calls, self.open, COUNT_WHEN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when in opened:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _enumerate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.monomials += len(result)
            return result
        return wrapper

    def span(self, name, fn, *args):
        """Call fn(*args) inside a root span of the given name."""
        return self._timed(name, fn, False)(*args)

    # -- patching ---------------------------------------------------------

    def _replace(self, orig, new):
        for mod in package_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, new)
                elif isinstance(val, type) and val.__module__.startswith("ncbinom"):
                    for ckey, cval in list(vars(val).items()):
                        if cval is orig:
                            self._patched.append((val, ckey, orig))
                            setattr(val, ckey, new)

    def install(self):
        for module, path, name, kind in TARGETS:
            orig = _resolve(module, path)
            if kind == "count":
                new = self._counted(name, orig)
            else:
                new = self._timed(name, orig, kind == "hot")
                if name == "pbw.enumerate_pbw_monomials":
                    new = self._enumerate(new)
            self._replace(orig, new)
        suites = sys.modules["ncbinom.verify"].SUITES
        for suite, fn in list(suites.items()):
            self._patched.append((suites, suite, fn))
            suites[suite] = self._timed(f"verify.{suite}", fn, False)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patched = []
