"""Exact symbolic engine for noncommutative binomial expansions: Lyndon
words, the Lyndon-Shirshov PBW basis, shuffle type polynomials, Bell
differential polynomials and their q- and sigma-deformations.
"""

from .freepoly import FreePoly, commutator, shuffle_product
from .pbw import PBWPoly, commutator_ls, pbw_expand, pbw_rewrite
from .rings import ModInt, QPoly, cyclotomic, q_binomial, q_factorial, q_integer
from .shuffle import binomial_ls, coeff_closed_form, sh_closed_form, sh_pbw
from .words import cfl_factorize, is_lyndon, lyndon_enumerate, standard_factorization

__all__ = [
    "FreePoly", "PBWPoly", "ModInt", "QPoly",
    "commutator", "commutator_ls", "shuffle_product",
    "pbw_expand", "pbw_rewrite",
    "binomial_ls", "coeff_closed_form", "sh_closed_form", "sh_pbw",
    "cfl_factorize", "is_lyndon", "lyndon_enumerate", "standard_factorization",
    "cyclotomic", "q_binomial", "q_factorial", "q_integer",
]
