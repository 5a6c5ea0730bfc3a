"""Lyndon-Shirshov basis elements and PBW rewriting.

A PBW monomial is a tuple of (lyndon_word, exponent) pairs with the words
strictly decreasing; the empty tuple is the unit.  ``pbw_rewrite`` expresses
any free polynomial with rational coefficients in this basis by eliminating
the lex-minimal word of each homogeneous component.  That elimination relies
on triangularity (the least word of an expanded monomial has coefficient 1),
so after clearing the common denominator it runs over the integers and never
divides; the property is tested, and a violation raises instead of looping.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .freepoly import FreePoly, SparseCombination, commutator
from .rings import to_mod_p
from .words import (Word, cfl_factorize, is_lyndon, multidegree,
                    standard_factorization)

PBWMonomial = tuple  # ((word, exp), ...) with strictly decreasing words


class OrderViolation(ValueError):
    pass


class UnsupportedRing(TypeError):
    pass


class InvariantError(AssertionError):
    """A checked postcondition failed.  Raised explicitly, so ``python -O``
    keeps the check; an ``AssertionError`` so verify suites report it."""


@lru_cache(maxsize=None)
def ls_basis_element(alpha: Word, m: int = 2) -> FreePoly:
    """E_alpha: the Lyndon word itself for letters, else [E_beta, E_gamma] at st(alpha)."""
    if not is_lyndon(alpha):
        raise ValueError(f"{alpha} is not a Lyndon word")
    if len(alpha) == 1:
        return FreePoly.word(alpha, m)
    beta, gamma = standard_factorization(alpha)
    return commutator(ls_basis_element(beta, m), ls_basis_element(gamma, m))


def monomial_from_word(w: Word) -> PBWMonomial:
    """Group the CFL factorization of w into (lyndon, exponent) pairs."""
    if not w:
        return ()
    factors = cfl_factorize(w)
    grouped = []
    for f in factors:
        if grouped and grouped[-1][0] == f:
            grouped[-1][1] += 1
        else:
            grouped.append([f, 1])
    return tuple((f, e) for f, e in grouped)


def monomial_word(mono: PBWMonomial) -> Word:
    """Concatenation alpha_1^t_1 ... alpha_n^t_n (the lex-minimal word of the expansion)."""
    w = ()
    for alpha, t in mono:
        w += alpha * t
    return w


def monomial_degree(mono: PBWMonomial) -> int:
    return sum(len(alpha) * t for alpha, t in mono)


def validate_monomial(mono: PBWMonomial):
    prev = None
    for alpha, t in mono:
        if t < 1:
            raise ValueError(f"exponent {t} < 1 in {mono}")
        if not is_lyndon(alpha):
            raise ValueError(f"{alpha} is not Lyndon")
        if prev is not None and not alpha < prev:
            raise OrderViolation(f"factors not strictly decreasing in {mono}")
        prev = alpha
    return mono


@lru_cache(maxsize=None)
def pbw_expand_monomial(mono: PBWMonomial, m: int = 2) -> FreePoly:
    """Product of powers of Lyndon-Shirshov basis elements, in the word basis."""
    result = FreePoly.unit(m)
    for alpha, t in mono:
        e = ls_basis_element(alpha, m)
        for _ in range(t):
            result = result * e
    return result


class PBWPoly(SparseCombination):
    """Sparse combination of PBW monomials."""

    __slots__ = ()
    basis = "pbw"

    @staticmethod
    def factors(mono: PBWMonomial):
        """A monomial is already its tuple of (Lyndon word, exponent) factors."""
        return mono

    @staticmethod
    def monomial(mono: PBWMonomial, m: int = 2, coeff=1) -> "PBWPoly":
        return PBWPoly({validate_monomial(mono): coeff}, m)

    def expand(self) -> FreePoly:
        out = FreePoly.zero(self.m)
        for mono, c in self.terms.items():
            out = out + pbw_expand_monomial(mono, self.m).scale(c)
        return out


def pbw_expand(p) -> FreePoly:
    """Linear extension of the monomial expansion."""
    if isinstance(p, PBWPoly):
        return p.expand()
    return pbw_expand_monomial(p)


def pbw_rewrite(f: FreePoly) -> PBWPoly:
    """Express f in the PBW basis; exact inverse of expansion.

    Works per homogeneous multidegree component, repeatedly eliminating the
    lex-minimal word via the monomial read off from its CFL factorization.
    Coefficients must be rational (char-p results are reduced afterwards).
    They are scaled by the least common multiple L of their denominators and
    eliminated as integers: the eliminated word has coefficient 1 in its
    expansion, so no step divides.  The result is divided by L at the end;
    integer input gives integer coefficients.
    """
    denom = 1
    for c in f.terms.values():
        if isinstance(c, Fraction):
            denom = lcm(denom, c.denominator)
        elif not isinstance(c, int):
            raise UnsupportedRing(f"pbw_rewrite needs rational coefficients, got {type(c).__name__}")
    m = f.m
    components = {}
    for w, c in f.terms.items():
        components.setdefault(multidegree(w, m), {})[w] = int(c * denom)
    out = {}
    for comp in components.values():
        while comp:
            w = min(comp)
            c = comp.pop(w)
            mono = monomial_from_word(w)
            out[mono] = out.get(mono, 0) + c
            expansion = pbw_expand_monomial(mono, m).terms
            if expansion.get(w) != 1:
                raise ArithmeticError(
                    f"expansion of {mono} has coefficient {expansion.get(w, 0)} at its "
                    f"least word {w}, not 1; the PBW basis is not triangular")
            for u, a in expansion.items():
                if u != w:
                    r = comp.get(u, 0) - c * a
                    if r:
                        comp[u] = r
                    else:
                        del comp[u]
    if denom != 1:
        out = {mono: Fraction(c, denom) for mono, c in out.items()}
    return PBWPoly(out, m)


def enumerate_pbw_monomials(m: int, counts):
    """All PBW monomials with the given multidegree (per-letter counts).

    By the Chen-Fox-Lyndon theorem, w -> monomial_from_word(w) is a bijection
    from the words of content ``counts`` onto these monomials.  The words are
    walked in lex order (next permutation), so the cost is O(output * length).
    """
    if len(counts) != m or any(c < 0 for c in counts):
        raise ValueError(f"need {m} nonnegative letter counts, got {tuple(counts)}")
    w = [x for x, c in enumerate(counts, 1) for _ in range(c)]
    results = []
    while True:
        results.append(monomial_from_word(tuple(w)))
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return results
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = reversed(w[i + 1:])


def reduce_mod_p(p_poly: PBWPoly, p: int) -> PBWPoly:
    """Reduce rational PBW coefficients mod p (denominators must be units)."""
    return p_poly.map_coeffs(lambda c: to_mod_p(c, p))


def commutator_ls(alpha: Word, beta: Word, m: int = 2) -> PBWPoly:
    """[E_alpha, E_beta] rewritten in the PBW basis, for Lyndon alpha < beta.

    The structural facts about the result (single E_gamma factors with
    alpha*beta <= gamma < beta and matching multidegree; or exactly
    E_{alpha beta} when alpha is a letter or its right factor dominates beta)
    are checked as postconditions and raise ``InvariantError``.
    """
    if not (is_lyndon(alpha) and is_lyndon(beta)):
        raise ValueError("both arguments must be Lyndon words")
    if not alpha < beta:
        raise OrderViolation(f"{alpha} must precede {beta}")
    result = pbw_rewrite(commutator(ls_basis_element(alpha, m), ls_basis_element(beta, m)))
    ab = alpha + beta
    simple_case = len(alpha) == 1 or standard_factorization(alpha)[1] >= beta
    if simple_case:
        if result != PBWPoly.monomial(((ab, 1),), m):
            raise InvariantError(f"[E_{alpha}, E_{beta}] expected E_{ab}, got {result!r}")
        return result
    if not result.coeff(((ab, 1),)):
        raise InvariantError(f"coefficient of E_{ab} vanished in [E_{alpha}, E_{beta}]")
    want_counts = multidegree(ab, m)
    for mono in result.terms:
        if not (len(mono) == 1 and mono[0][1] == 1):
            raise InvariantError(f"non-Lie monomial {mono} in [E_{alpha}, E_{beta}]")
        gamma = mono[0][0]
        if not ab <= gamma < beta:
            raise InvariantError(f"gamma {gamma} out of range in [E_{alpha}, E_{beta}]")
        if multidegree(gamma, m) != want_counts:
            raise InvariantError(f"multidegree mismatch at {gamma} in [E_{alpha}, E_{beta}]")
    return result
