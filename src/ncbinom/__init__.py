"""Exact symbolic engine for noncommutative binomial expansions: Lyndon
words, the Lyndon-Shirshov PBW basis, shuffle type polynomials, Bell
differential polynomials and their q- and sigma-deformations.
"""

import sys
from functools import lru_cache
from types import FunctionType

from .freepoly import FreePoly, commutator, shuffle_product
from .pbw import PBWPoly, commutator_ls, pbw_expand, pbw_rewrite
from .rings import ModInt, QPoly, cyclotomic, q_binomial, q_factorial, q_integer
from .shuffle import binomial_ls, coeff_closed_form, sh_closed_form, sh_pbw
from .words import cfl_factorize, is_lyndon, lyndon_enumerate, standard_factorization

__all__ = [
    "FreePoly", "PBWPoly", "ModInt", "QPoly",
    "clear_caches", "commutator", "commutator_ls", "shuffle_product",
    "pbw_expand", "pbw_rewrite",
    "binomial_ls", "coeff_closed_form", "sh_closed_form", "sh_pbw",
    "cfl_factorize", "is_lyndon", "lyndon_enumerate", "standard_factorization",
    "cyclotomic", "q_binomial", "q_factorial", "q_integer",
]


def clear_caches():
    """Empty every functools cache held in a module global of the package.

    A global function wrapped once by ``functools.wraps`` (a tracer's timer)
    is looked through to its ``__wrapped__``; only one level, since a test
    double may set ``__wrapped__`` to itself.  Exact type tests keep it cheap,
    since ``verify`` calls it before each suite; the cache type is not kept in
    a global, where it would pass for a cache."""
    cache_type = type(lru_cache(maxsize=None)(len))
    for name, mod in list(sys.modules.items()):
        if name == __name__ or name.startswith(__name__ + "."):
            for val in vars(mod).values():
                if type(val) is FunctionType:
                    val = vars(val).get("__wrapped__")
                if type(val) is cache_type:
                    val.cache_clear()
