"""Exact symbolic engine for noncommutative binomial expansions: Lyndon
words, the Lyndon-Shirshov PBW basis, shuffle type polynomials, Bell
differential polynomials and their q- and sigma-deformations.
"""

import sys

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

    A global wrapped once by ``functools.wraps`` (a tracer's timer) is looked
    through to its ``__wrapped__``; only one level, since a test double may
    set ``__wrapped__`` to itself."""
    for name, mod in list(sys.modules.items()):
        if name == __name__ or name.startswith(__name__ + "."):
            for val in vars(mod).values():
                for obj in (val, getattr(val, "__wrapped__", None)):
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()
