"""Standalone identity checks: the composition-sum identity for shuffle type
polynomials and the quantum-plane / cyclotomic facts about Gaussian binomials.
"""

from __future__ import annotations

from functools import partial
from math import comb

from .freepoly import FreePoly, sh_multidegree
from .quotients import normal_order, normal_power
from .rings import (DivisionNotExact, cyclotomic, exponent_vectors, q_binomial,
                    qpoly_exact_div)

# alphabet convention: letter 1 = g, letter 2 = h
_G, _H = 1, 2


def a_word(k: int):
    """a_k = g h^k, the length-(k+1) building block."""
    return (_G,) + (_H,) * k


def faa_composition_sum(m: int, n: int) -> FreePoly:
    """Sum of a_{i_0} a_{i_1} ... a_{i_n} over compositions i_0+...+i_n = m."""
    out = FreePoly.zero(2)
    for comp in exponent_vectors(m, (1,) * (n + 1)):
        w = ()
        for i in comp:
            w += a_word(i)
        out = out + FreePoly.word(w, 2)
    return out


def faa_di_bruno_check(m: int, n: int) -> bool:
    """g * SH_{m,n}(h, g) equals the composition sum of the a_k words.

    SH_{m,n}(h,g) carries m letters h and n letters g; the total coefficient
    mass on both sides is the composition count binom(m+n, n), which is also
    verified.
    """
    lhs = FreePoly.letter(_G, 2) * sh_multidegree((n, m))
    rhs = faa_composition_sum(m, n)
    mass = sum(rhs.terms.values())
    if mass != comb(m + n, n):
        return False
    return lhs == rhs


def _quantum_plane_rule(a, b):
    """g h -> q h g, the one relation of the quantum plane."""
    return (((b, a), 1),) if (a, b) == (_G, _H) else None


def q_binomial_theorem_check(n: int) -> bool:
    """(x+y)^n = sum_j binom(n,j)_q y^{n-j} x^j in the quantum plane xy = qyx.

    Modeled with x = g, y = h: (g+h)^n is built one letter at a time and
    normal-ordered by the quotients' rewriter, and its coefficients are
    checked against the Pascal recursion of q_binomial.
    """
    power = normal_power((_G, _H), n, partial(normal_order, rule=_quantum_plane_rule))
    # a normal-ordered word is h^{n-j} g^j, so its letter counts identify it
    ordered = {(w.count(_H), w.count(_G)): c for w, c in power.items()}
    return ordered == {(n - j, j): q_binomial(n, j) for j in range(n + 1)}


def qbinom_cyclotomic_vanish(n: int) -> bool:
    """The n-th cyclotomic polynomial divides binom(n,i)_q for 1 <= i <= n-1.

    This is what kills the shuffle type relations at a primitive n-th root of
    unity.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    phi = cyclotomic(n)
    for i in range(1, n):
        try:
            qpoly_exact_div(q_binomial(n, i), phi)
        except DivisionNotExact:
            return False
    return True
