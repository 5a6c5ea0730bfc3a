"""Standalone identity checks: the composition-sum identity for shuffle type
polynomials and the quantum-plane / cyclotomic facts about Gaussian binomials.
"""

from __future__ import annotations

from math import comb

from .freepoly import FreePoly, sh_multidegree
from .rings import (DivisionNotExact, QPoly, cyclotomic, exponent_vectors,
                    q_binomial, qpoly_exact_div)

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
    lhs = FreePoly.letter(_G, 2) * sh_multidegree((n, m), 2)
    rhs = faa_composition_sum(m, n)
    mass = sum(rhs.terms.values())
    if mass != comb(m + n, n):
        return False
    return lhs == rhs


def quantum_plane_normal_order(f: FreePoly):
    """Normal-order a polynomial over {g, h} with relation g h = q h g.

    Returns a dict (h_count, g_count) -> QPoly; each word contributes
    q^(number of (g, h) inversions, g left of h).  The rational coefficients
    of f are summed per (key, inversions), and one QPoly is built per key.
    """
    rows = {}
    for w, c in f.terms.items():
        inversions = 0
        seen_g = 0
        for letter in w:
            if letter == _G:
                seen_g += 1
            else:
                inversions += seen_g
        row = rows.setdefault((w.count(_H), seen_g), {})
        row[inversions] = row.get(inversions, 0) + c
    out = {}
    for key, row in rows.items():
        p = QPoly([row.get(i, 0) for i in range(max(row) + 1)])
        if p:
            out[key] = p
    return out


def q_binomial_theorem_check(n: int) -> bool:
    """(x+y)^n = sum_j binom(n,j)_q y^{n-j} x^j in the quantum plane xy = qyx.

    Modeled with x = g, y = h: the relation and normal order match the
    quantum-plane routine above.
    """
    x = FreePoly.letter(_G, 2)
    y = FreePoly.letter(_H, 2)
    ordered = quantum_plane_normal_order((x + y) ** n)
    expected = {(n - j, j): q_binomial(n, j) for j in range(n + 1)}
    return ordered == expected


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
