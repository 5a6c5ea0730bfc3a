"""Shuffle type polynomials in PBW coordinates and the closed coefficient formula.

The closed form gives the coefficient of any PBW monomial in the shuffle type
polynomial of its multidegree as a factorial quotient times a product of
per-Lyndon-word integers, computed in exact integers with an explicit
divisibility check.  ``sh --pbw``, ``binom`` and ``bell`` take this route,
and store no term: ``sh_closed_form`` is a ``PBWStream`` that lists the
monomials of its content in key order and computes each coefficient as the
printout reads it, and ``binomial_ls`` sorts the lists of all its contents,
each already sorted, into one.  ``sh_pbw`` rewrites the word form, as the
second route of ``verify``.  The word form itself, ``sh_word``, is a stream
of the content's words in key order: ``sh --degree`` prints it, over GF(p)
too, without storing a word.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .freepoly import WordStream, content_stream
from .pbw import (PBWMonomial, PBWPoly, PBWStream, enumerate_pbw_monomials,
                  monomial_degree, monomial_from_word, pbw_rewrite,
                  reduce_mod_p)
from .rings import exponent_vectors
from .words import Word, is_lyndon


class IntegralityError(ArithmeticError):
    """An exact integer was expected; signals a broken invariant."""


def _letter_counts(counts):
    """The count of each letter 1..m in turn, from an SH index over m =
    len(counts) letters.

    A binary index (i, j) follows SH_{i,j}: i letters 2 and j letters 1.
    Any other index lists the count of each letter in turn.
    """
    if len(counts) == 2:
        return counts[1], counts[0]
    return tuple(counts)


def sh_word(counts) -> WordStream:
    """Word form of the shuffle type polynomial with the given SH index: every
    word of its content with coefficient 1, streamed in key order."""
    return content_stream(_letter_counts(counts))


def sh_pbw(counts) -> PBWPoly:
    """PBW form of the shuffle type polynomial, by rewriting its word form."""
    return pbw_rewrite(sh_word(counts).poly())


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


def sh_closed_form(counts) -> PBWStream:
    """The shuffle type polynomial read purely off the closed formula: its
    monomials are enumerated now, in key order, and each coefficient is
    computed as the stream is walked.

    Independent of ``pbw_rewrite``; the equality of the two routes is the
    main verified identity.
    """
    return _closed_stream(len(counts), enumerate_pbw_monomials(_letter_counts(counts)))


def binomial_ls(m: int, d: int) -> PBWStream:
    """(E_1 + ... + E_m)^d read off the closed coefficient formula: the
    monomials of all its contents in key order, each with its coefficient
    computed as the stream is walked."""
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if d < 0:
        raise ValueError("negative power")
    monos = []
    for counts in exponent_vectors(d, (1,) * m):
        monos += enumerate_pbw_monomials(counts)
    # each content gives a sorted run, and the sort merges the runs
    monos.sort()
    return _closed_stream(m, monos)


def _closed_stream(m: int, monos) -> PBWStream:
    """The stream of the list ``monos``, in key order, each monomial with its
    closed-form coefficient."""
    return PBWStream(m, lambda: zip(monos, map(coeff_closed_form, monos)))


class CharPViolation(AssertionError):
    pass


def sh_pbw_char_p(k: int, p: int) -> PBWPoly:
    """SH_{k, p-k} over GF(p), checked: only single length-p Lyndon factors
    survive.  The check behind ``verify charp``."""
    if not 1 <= k <= p - 1:
        raise ValueError("need 1 <= k <= p-1")
    reduced = reduce_mod_p(sh_closed_form((k, p - k)), p).poly()
    for mono in reduced.terms:
        if not (len(mono) == 1 and mono[0][1] == 1 and len(mono[0][0]) == p):
            raise CharPViolation(
                f"monomial {mono} of length < {p} survived reduction mod {p}")
    return reduced
