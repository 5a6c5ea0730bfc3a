"""Lyndon-Shirshov basis elements and PBW rewriting.

A PBW monomial is a tuple of (lyndon_word, exponent) pairs with the words
strictly decreasing; the empty tuple is the unit.  ``pbw_rewrite`` expresses
any free polynomial with rational coefficients in this basis by eliminating
the lex-minimal word of each homogeneous component.  That elimination relies
on triangularity (an expanded monomial's least word is its CFL concatenation,
with coefficient 1), so after clearing the common denominator it runs over
the integers and never divides.  Both halves of the property are checked as
the elimination goes, and a violation raises instead of looping.

The work is done on coded words.  All words of one homogeneous component
have the same length n, so a word is coded as the base-(m+1) integer of its
letters, and lex order on the words is numeric order on the codes.
``_bracket_codes`` builds E_alpha by the bracket recursion, reading the
children through a given lookup, and ``_basis_codes`` caches it.  A monomial's
expansion is the product of its factors' basis codes: each factor sits at a
fixed position, so a word of the product is coded by the sum of its factors'
codes, each shifted by a fixed power of m+1.  ``_factor_parts`` folds the
letters into one base code and the multi-word factors but the largest into
a short list of (base, coefficient) pairs; ``pbw_rewrite`` streams the
largest factor against those pairs straight into the component, and
``_expansion_codes`` collects the same product into a dict.  The
elimination caches no expansion, and only the basis elements it reads
many times.  In a component of length n, a Lyndon word of length n is read
once, when it is eliminated, and one of length n - 1 a few times: as the
factor of the one monomial it makes with a letter, and as a child of at most
two words of length n.  So E_alpha of those two top lengths is built from
its children each time and not stored, which drops two thirds of the cache
for a few rebuilds: a rewrite of (x+y)^10 caches the 71 binary basis
elements of length <= 8 and none of the 56 of length 9 or 99 of length 10.
``ls_basis_element`` and ``pbw_expand_monomial`` keep every E_alpha cached,
decode the codes into ``FreePoly`` and cache that for their other callers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from math import lcm

from .freepoly import FreePoly, SparseCombination, TermStream, commutator
from .rings import ring_tag, to_mod_p
from .words import (Word, cfl_factorize, content_words, is_lyndon,
                    multidegree, standard_factorization)

PBWMonomial = tuple  # ((word, exp), ...) with strictly decreasing words


class OrderViolation(ValueError):
    pass


class UnsupportedRing(TypeError):
    pass


class InvariantError(AssertionError):
    """A checked postcondition failed.  Raised explicitly, so ``python -O``
    keeps the check; an ``AssertionError`` so verify suites report it."""


def _code(w: Word, m: int) -> int:
    """The base-(m+1) integer of w's letters, which must lie in 1..m."""
    k = 0
    for x in w:
        if not 1 <= x <= m:
            raise ValueError(f"letter {x} outside alphabet of size {m}")
        k = k * (m + 1) + x
    return k


def _check_lyndon(alpha: Word, m: int):
    if not is_lyndon(alpha):
        raise ValueError(f"{alpha} is not a Lyndon word")
    _code(alpha, m)  # checks the letters


def _decode(k: int, n: int, m: int) -> Word:
    w = [0] * n
    for i in range(n - 1, -1, -1):
        k, w[i] = divmod(k, m + 1)
    return tuple(w)


def _decoded(codes: dict, n: int, m: int) -> FreePoly:
    """The FreePoly of coded words of length n; the coefficients are nonzero."""
    return FreePoly._make({_decode(k, n, m): c for k, c in codes.items()}, m)


def _bracket_codes(alpha: Word, m: int, basis) -> dict:
    """E_alpha as {code: coefficient}, by [E_beta, E_gamma] at st(alpha),
    with the children read through ``basis(word, m)``."""
    if len(alpha) == 1:
        return {alpha[0]: 1}
    beta, gamma = standard_factorization(alpha)
    left, right = basis(beta, m), basis(gamma, m)
    lshift, rshift = (m + 1) ** len(beta), (m + 1) ** len(gamma)
    codes = {u * rshift + v: a * b for u, a in left.items() for v, b in right.items()}
    for v, b in right.items():
        for u, a in left.items():
            key = v * lshift + u
            r = codes.get(key, 0) - a * b
            if r:
                codes[key] = r
            else:
                del codes[key]
    return codes


@lru_cache(maxsize=None)
def _basis_codes(alpha: Word, m: int) -> dict:
    """E_alpha as {code: coefficient}, its children cached too."""
    return _bracket_codes(alpha, m, _basis_codes)


def _basis_below(n: int, alpha: Word, m: int) -> dict:
    """E_alpha for a component of length n: cached below its two top lengths
    and rebuilt from its children at those."""
    if len(alpha) <= n - 2:
        return _basis_codes(alpha, m)
    return _bracket_codes(alpha, m, partial(_basis_below, n))


_UNIT = {0: 1}  # the expansion of the empty product; read, never written


def _factor_parts(mono: PBWMonomial, m: int, basis=_basis_codes):
    """The expansion of a monomial as (pairs, shift, codes): the sum over
    (b, c) in pairs and (u, a) in codes.items() of c*a at code b + u*shift.
    The factors' basis elements are read through ``basis(word, m)``.

    Every factor sits at a fixed position, so the codes of its words shift
    by a fixed power and the keys of the product add.  Letters fold into the
    base code of every pair.  The factor with the most words is left out of
    the pairs, to be streamed innermost; the other multi-word factors expand
    into the pairs.  Keys are distinct and coefficients, products of nonzero
    integers, are nonzero, so the product needs no collecting.
    """
    base, shift, factors, m1 = 0, 1, [], m + 1
    for alpha, t in reversed(mono):
        if len(alpha) == 1:  # t copies of the letter: a geometric run of codes
            run = m1 ** t
            base += alpha[0] * shift * (run - 1) // m
            shift *= run
        else:
            codes, step = basis(alpha, m), m1 ** len(alpha)
            for _ in range(t):
                factors.append((shift, codes))
                shift *= step
    if len(factors) < 2:
        shift, codes = factors[0] if factors else (1, _UNIT)
        return ((base, 1),), shift, codes
    factors.sort(key=lambda factor: len(factor[1]))
    shift, codes = factors.pop()
    pairs = [(base, 1)]
    for s, other in factors:
        pairs = [(b + u * s, c * a) for b, c in pairs for u, a in other.items()]
    return pairs, shift, codes


def _expansion_codes(mono: PBWMonomial, m: int) -> dict:
    """Expansion of a monomial as {code: coefficient}: its factors' product."""
    pairs, shift, codes = _factor_parts(mono, m)
    return {b + u * shift: c * a for b, c in pairs for u, a in codes.items()}


@lru_cache(maxsize=None)
def ls_basis_element(alpha: Word, m: int = 2) -> FreePoly:
    """E_alpha: the Lyndon word itself for letters, else [E_beta, E_gamma] at st(alpha)."""
    _check_lyndon(alpha, m)
    return _decoded(_basis_codes(alpha, m), len(alpha), m)


def monomial_from_word(w: Word, shared: dict = None) -> PBWMonomial:
    """Group the CFL factorization of w into (lyndon, exponent) pairs.

    Each pair is looked up in the dict ``shared`` and added when new, so the
    monomials built with one dict hold one object per distinct factor.  The
    caller owns the dict, and the sharing ends with it; without one, a fresh
    dict serves this call.
    """
    if not w:
        return ()
    share = ({} if shared is None else shared).setdefault
    factors = cfl_factorize(w)
    out, prev, t = [], factors[0], 0
    # the factors never increase, so equal ones are adjacent
    for f in factors:
        if f == prev:
            t += 1
        else:
            pair = (prev, t)
            out.append(share(pair, pair))
            prev, t = f, 1
    pair = (prev, t)
    out.append(share(pair, pair))
    return tuple(out)


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
    for alpha, _ in mono:
        _check_lyndon(alpha, m)
    mono = tuple((alpha, t) for alpha, t in mono if t > 0)
    return _decoded(_expansion_codes(mono, m), monomial_degree(mono), m)


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


class PBWStream(TermStream):
    """A PBW-basis polynomial read off a closed formula, one term at a time.

    ``source()`` yields (monomial, coefficient) in key order, and each
    coefficient is computed as its term is read, so no term is stored.  The
    ring is declared, since no coefficient is known before the walk: Q by
    default, and a coefficient map declares the ring of its image of 1.  A
    monomial whose coefficient is zero is skipped.  ``poly`` reads the stream
    into a ``PBWPoly``, for the routes that do arithmetic on it.
    """

    __slots__ = ("m", "source", "ring")
    basis = "pbw"

    def __init__(self, m: int, source, ring: str = "Q"):
        self.m = m
        self.source = source
        self.ring = ring

    def walk(self):
        return ((mono, c) for mono, c in self.source() if c)

    def map_coeffs(self, fn):
        source = self.source
        return PBWStream(self.m, lambda: ((mono, fn(c)) for mono, c in source()),
                         ring_tag(fn(1)))

    def poly(self) -> PBWPoly:
        return PBWPoly._make(dict(self.walk()), self.m)


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

    The expansion of the monomial, the product of its factors' basis codes,
    is streamed into the component, its least word included, which it must
    cancel.  The codes wait in a heap, so each elimination takes the least
    one left.  A least word that keeps a coefficient, or a word that comes in
    at or below an eliminated one, raises ``ArithmeticError``.

    Only what is read many times is kept.  A component's Lyndon words of
    length n and n - 1 are read once and a few times, so their basis
    elements are built from their children and not stored; shorter factors
    recur and stay cached.
    Equal (word, exponent) factors of the result are one object, and the
    input is dropped once its words are coded.
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
        k = _code(w, m)
        # c * denom exactly, without Fraction arithmetic (an int is its own numerator)
        components.setdefault(multidegree(w, m), {})[k] = c.numerator * (denom // c.denominator)
    del f  # coded into the components; nothing reads it again
    out = {}
    shared = {}  # one object per (word, exponent) factor of the result
    for counts, comp in components.items():
        n = sum(counts)
        basis = partial(_basis_below, n)
        get = comp.get
        heap = list(comp)
        heapify(heap)
        last = -1
        while heap:
            k = heappop(heap)
            c = get(k)
            if c is None:  # cancelled since it was pushed
                continue
            w = _decode(k, n, m)
            if k <= last:
                raise ArithmeticError(
                    f"expansion of {mono} leaves the word {w} at or below its least word "
                    f"{_decode(last, n, m)}; the PBW basis is not triangular")
            last = k
            mono = monomial_from_word(w, shared)
            out[mono] = c
            pairs, shift, codes = _factor_parts(mono, m, basis)
            for b, d in pairs:
                d *= c
                for u, a in codes.items():
                    key = b + u * shift
                    r = get(key)
                    if r is None:
                        comp[key] = -d * a
                        heappush(heap, key)
                    else:
                        r -= d * a
                        if r:
                            comp[key] = r
                        else:
                            del comp[key]
            if k in comp:
                raise ArithmeticError(
                    f"expansion of {mono} does not cancel its least word {w}; "
                    "the PBW basis is not triangular")
    if denom != 1:
        out = {mono: Fraction(c, denom) for mono, c in out.items()}
    # every monomial is eliminated once, with the nonzero coefficient it had
    return PBWPoly._make(out, m)


def enumerate_pbw_monomials(counts):
    """All PBW monomials with the given multidegree (per-letter counts of the
    letters 1..len(counts)), as a list in increasing key order.

    By the Chen-Fox-Lyndon theorem, w -> monomial_from_word(w) is a bijection
    from the words of content ``counts`` onto these monomials: they are read
    off ``content_words``, which refuses a negative count, in O(output * length).
    The words come in lex order and the map keeps it, so the monomials come
    sorted.  Equal (word, exponent) factors of the list are one object.
    """
    shared = {}
    return [monomial_from_word(w, shared) for w in content_words(counts)]


def reduce_mod_p(p_poly: TermStream, p: int) -> TermStream:
    """Reduce the rational coefficients of a word-basis or PBW polynomial mod
    p (denominators must be units).  A ``WordStream`` maps only its few
    shared coefficients and stays a stream; a ``PBWStream`` reduces each
    coefficient as it is walked and declares GF:p."""
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
