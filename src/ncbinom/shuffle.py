"""Shuffle type polynomials in PBW coordinates and the closed coefficient formula.

The closed form gives the coefficient of any PBW monomial in the shuffle type
polynomial of its multidegree as a factorial quotient times a product of
per-Lyndon-word integers, computed in exact integers with an explicit
divisibility check.  Every command takes this route (``sh_closed_form``);
``sh_pbw`` rewrites the word form, as the second route of ``verify``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .freepoly import FreePoly, sh_multidegree
from .pbw import (PBWMonomial, PBWPoly, enumerate_pbw_monomials,
                  monomial_degree, monomial_from_word, pbw_rewrite,
                  reduce_mod_p)
from .rings import exponent_vectors
from .words import Word, is_lyndon


class IntegralityError(ArithmeticError):
    """An exact integer was expected; signals a broken invariant."""


def _letter_counts(counts, m):
    """Per-letter counts of letters 1..m, and m, from an SH index.

    A binary index (i, j) follows SH_{i,j}: i letters 2 and j letters 1.
    Any other index lists the count of each letter 1..m in turn.
    """
    if m is None:
        m = len(counts)
    if m == 2 and len(counts) == 2:
        return (counts[1], counts[0]), m
    return tuple(counts), m


def sh_word(counts, m: int = None) -> FreePoly:
    """Word form of the shuffle type polynomial with the given SH index."""
    return sh_multidegree(*_letter_counts(counts, m))


def sh_pbw(counts, m: int = None) -> PBWPoly:
    """PBW form of the shuffle type polynomial, by rewriting its word form."""
    return pbw_rewrite(sh_word(counts, m))


@lru_cache(maxsize=None)
def c_e_alpha(alpha: Word) -> int:
    """Coefficient of E_alpha in the shuffle type polynomial of its multidegree.

    Equal to the closed-form coefficient of the PBW monomial of alpha with its
    leading letter removed (a single letter has coefficient 1).
    """
    if not is_lyndon(alpha):
        raise ValueError(f"{alpha} is not a Lyndon word")
    return coeff_closed_form(monomial_from_word(alpha[1:]))


def coeff_closed_form(mono: PBWMonomial) -> int:
    """Closed-form coefficient of a PBW monomial in its shuffle type polynomial.

    |mono|! * prod c_e_alpha(alpha)^t / (|alpha|!^t t!), in exact integers; a
    nonzero remainder violates the closed-form theorem and raises.
    """
    num, den = factorial(monomial_degree(mono)), 1
    for alpha, t in mono:
        num *= c_e_alpha(alpha) ** t
        den *= factorial(len(alpha)) ** t * factorial(t)
    value, rem = divmod(num, den)
    if rem:
        raise IntegralityError(f"non-integral coefficient {num}/{den} for {mono}")
    return value


def sh_closed_form(counts, m: int = None) -> PBWPoly:
    """Assemble the shuffle type polynomial purely from the closed formula.

    Independent of ``pbw_rewrite``; the equality of the two routes is the
    main verified identity.
    """
    per_letter, m = _letter_counts(counts, m)
    terms = {}
    for mono in enumerate_pbw_monomials(m, per_letter):
        c = coeff_closed_form(mono)
        if c:
            terms[mono] = c
    return PBWPoly(terms, m)


def binomial_ls(m: int, d: int) -> PBWPoly:
    """(E_1 + ... + E_m)^d assembled from the closed coefficient formula."""
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if d < 0:
        raise ValueError("negative power")
    terms = {}
    # monomials of different contents differ, so the parts never collide
    for counts in exponent_vectors(d, (1,) * m):
        terms.update(sh_closed_form(counts, m).terms)
    return PBWPoly(terms, m)


class CharPViolation(AssertionError):
    pass


def sh_pbw_char_p(k: int, p: int) -> PBWPoly:
    """SH_{k, p-k} over GF(p): only single length-p Lyndon factors survive."""
    if not 1 <= k <= p - 1:
        raise ValueError("need 1 <= k <= p-1")
    reduced = reduce_mod_p(sh_closed_form((k, p - k), 2), p)
    for mono in reduced.terms:
        if not (len(mono) == 1 and mono[0][1] == 1 and len(mono[0][0]) == p):
            raise CharPViolation(
                f"monomial {mono} of length < {p} survived reduction mod {p}")
    return reduced
