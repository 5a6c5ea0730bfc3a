"""Bell differential polynomials and their relation to shuffle type polynomials.

Conventions: letter 1 plays x, letter 2 plays y.  The partial polynomial of
index (n, k) is homogeneous with k letters 2 and n-k letters 1.  It is
SH_{k,n-k}(y*, ad x)(1), read off the SH-hat triangle of ``qsigma`` by
``qsigma.bell_partials``.  The dual family is evaluated with swapped roles
(x = letter 2, y = letter 1), which is the argument order the filter identity
needs; ``qsigma.bell_dual_partials`` reads it off the same triangle.
"""

from __future__ import annotations

from math import comb, factorial

from .freepoly import FreePoly
from .pbw import PBWPoly, enumerate_pbw_monomials, pbw_rewrite
from .qsigma import bell_dual_partials, bell_partials, partial_at
from .rings import exponent_vectors
from .shuffle import coeff_closed_form, sh_pbw

_X = FreePoly.letter(1, 2)
_Y = FreePoly.letter(2, 2)


def bell_partial(n: int, k: int) -> PBWPoly:
    return pbw_rewrite(partial_at(bell_partials(n), k))


def bell_word(n: int) -> FreePoly:
    """Full Bell differential polynomial (ad x + y)^n applied to 1."""
    return sum(bell_partials(n), FreePoly.zero(2))


def _dual_rec(n: int, x: FreePoly, y: FreePoly) -> FreePoly:
    """B*(n+1) = B*(n)x - xB*(n) + B*(n)y, B*(0) = 1."""
    out = FreePoly.unit(2)
    for _ in range(n):
        out = (out * x - x * out) + out * y
    return out


def bell_dual(n: int, k: int) -> PBWPoly:
    """Part of the dual polynomial at swapped arguments with exactly k letters 1."""
    return pbw_rewrite(partial_at(bell_dual_partials(n), k))


def binomial_via_bell(n: int, dual: bool = False) -> FreePoly:
    """Binomial expansion through the Bell recursion (Lemma 4.2).

    ``verify lemma42`` checks that it equals (x+y)^n.
    """
    total = FreePoly.zero(2)
    for k in range(n + 1):
        if dual:
            part = _X ** (n - k) * _dual_rec(k, _X, _Y)
        else:
            part = bell_word(k) * _X ** (n - k)
        total = total + part.scale(comb(n, k))
    return total


def sh_filter(counts, side: str) -> PBWPoly:
    """Shuffle type polynomial with boundary terms dropped.

    side='rightmost_not_E1' removes terms whose last PBW factor is the
    single letter 1; side='leftmost_not_E2' removes terms whose first factor
    is the single letter 2.
    """
    full = sh_pbw(counts, 2)
    if side == "rightmost_not_E1":
        keep = {mono: c for mono, c in full.terms.items()
                if not (mono and mono[-1][0] == (1,))}
    elif side == "leftmost_not_E2":
        keep = {mono: c for mono, c in full.terms.items()
                if not (mono and mono[0][0] == (2,))}
    else:
        raise ValueError(f"unknown side {side!r}")
    return PBWPoly(keep, 2)


def bell_ls_form(n: int, k: int) -> PBWPoly:
    """Direct assembly of the partial Bell polynomial from closed-form coefficients.

    Sums over PBW monomials of multidegree (k letters 2, n-k letters 1) with
    no trailing single-letter-1 factor.
    """
    if n < k or k < 0:
        raise ValueError("need n >= k >= 0")
    if n == 0:
        return PBWPoly.monomial((), 2)
    if k == 0:
        return PBWPoly.zero(2)
    terms = {}
    for mono in enumerate_pbw_monomials(2, (n - k, k)):
        if mono and mono[-1][0] == (1,):
            continue
        c = coeff_closed_form(mono)
        if c:
            terms[mono] = c
    return PBWPoly(terms, 2)


def _omega(m: int):
    """The Lyndon word 1^m 2."""
    return (1,) * m + (2,)


def classical_bell_project(n: int) -> PBWPoly:
    """Bell polynomial with every monomial containing a factor of 2-count >= 2 killed.

    The survivors reproduce the classical Bell polynomial formula with
    y -> E_2 and the m-th derivative -> E_{1...12}; ``verify lemma42`` checks
    that against ``classical_bell_formula``.
    """
    full = pbw_rewrite(bell_word(n))
    projected = {}
    for mono, c in full.terms.items():
        if any(sum(1 for a in alpha if a == 2) >= 2 for alpha, _ in mono):
            continue
        projected[mono] = c
    return PBWPoly(projected, 2)


def classical_bell_formula(n: int) -> PBWPoly:
    """Classical Bell polynomial with derivative symbols as Lyndon words.

    Sum over k_1 + 2k_2 + ... + nk_n = n of n!/(prod k_i! (i!)^k_i) times the
    decreasing product E_2^{k_1} E_12^{k_2} E_112^{k_3} ...
    """
    terms = {}
    for ks in exponent_vectors(n, range(1, n + 1)):
        coeff = factorial(n)
        mono = []
        for i, ki in enumerate(ks, start=1):
            if ki == 0:
                continue
            coeff //= factorial(ki) * factorial(i) ** ki
            mono.append((_omega(i - 1), ki))
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
    return PBWPoly(terms, 2)

