"""Bell differential polynomials and their relation to shuffle type polynomials.

Conventions: letter 1 plays x, letter 2 plays y.  The partial polynomial of
index (n, k) is homogeneous with k letters 2 and n-k letters 1; by definition
it is SH_{k,n-k}(y*, ad x)(1), read off ``qsigma.bell_partials``.  The dual
family ``_dual_rec`` is evaluated with swapped roles (x = letter 2, y = letter
1), the argument order the filter identity needs.  Theorem C reads both off
the closed-form shuffle type polynomials through ``drop_boundary``.
"""

from __future__ import annotations

from math import comb, factorial

from .freepoly import FreePoly
from .pbw import PBWPoly, pbw_rewrite
from .qsigma import bell_partials
from .rings import exponent_vectors
from .shuffle import sh_closed_form, sh_pbw

_X = FreePoly.letter(1, 2)
_Y = FreePoly.letter(2, 2)

# side: (end of a dropped term's monomial, the Lyndon word of the factor there)
_BOUNDARY = {"rightmost_not_E1": (-1, (1,)), "leftmost_not_E2": (0, (2,))}


def drop_boundary(p: PBWPoly, side: str) -> PBWPoly:
    """p without the terms whose last PBW factor is E_1 (side='rightmost_not_E1')
    or whose first factor is E_2 (side='leftmost_not_E2')."""
    if side not in _BOUNDARY:
        raise ValueError(f"unknown side {side!r}")
    end, alpha = _BOUNDARY[side]
    return PBWPoly._make({mono: c for mono, c in p.terms.items()
                          if not (mono and mono[end][0] == alpha)}, p.m)


def sh_filter(counts, side: str) -> PBWPoly:
    """Shuffle type polynomial with boundary terms dropped, by the rewrite route."""
    return drop_boundary(sh_pbw(counts, 2), side)


def _closed_filter(n: int, k: int, counts, side: str) -> PBWPoly:
    """drop_boundary of the closed-form SH_counts; zero for k > n."""
    if n < 0 or k < 0:
        raise ValueError("negative index")
    if k > n:
        return PBWPoly.zero(2)
    return drop_boundary(sh_closed_form(counts, 2), side)


def bell_partial(n: int, k: int) -> PBWPoly:
    """B(n,k): SH_{k,n-k} without the terms whose last factor is E_1."""
    return _closed_filter(n, k, (k, n - k), "rightmost_not_E1")


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
    """Part of the dual polynomial at swapped arguments with exactly k letters 1:
    SH_{n-k,k} without the terms whose first factor is E_2."""
    return _closed_filter(n, k, (n - k, k), "leftmost_not_E2")


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

