"""Structured quotient algebras where the classical binomial formulas live.

Four quotient models: generic kill-sets of Lyndon-Shirshov generators, the
q-commutative ordered d-alphabet (d_v d_u = q^v d_u d_v), the Blumen
rewriting system (xy -> qyx + h, xh -> q^2 hx, hy -> q^2 yh), which is the
d-alphabet cut off at order 2, and the Weyl-type quotient (only E_2, E_12,
E_1 survive), which is Blumen at q = 1.  Every closed form reads the one
q-multinomial ``qcomm_multinomial``, a product of binomials that never
divides, and every rewrite route, the quantum plane of ``identities``
included, runs the one rewriter ``normal_order``.  Production calls return
the closed forms and compute each result once; the rewrite routes
(``qcomm_bell_recursive``, ``blumen_binomial_rewrite``) are run only by
``verify qcomm`` and ``verify blumen``, which compare them explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .pbw import PBWPoly, commutator_ls
from .rings import QPoly, exponent_vectors, q_binomial
from .words import is_lyndon


class IdealNotMonomial(ValueError):
    """The Lie ideal is not spanned by Lyndon-Shirshov basis elements."""


def kill_project(p: PBWPoly, kill_set) -> PBWPoly:
    """Drop every PBW term containing a factor from the kill set."""
    ks = {tuple(w) for w in kill_set}
    kept = {mono: c for mono, c in p.terms.items()
            if not any(alpha in ks for alpha, _ in mono)}
    return PBWPoly(kept, p.m)


def lie_ideal_closure(gens, max_degree: int, m: int = 2):
    """Lyndon words spanning the Lie ideal generated by gens, up to max_degree.

    Works degree by degree on two facts.  The letters generate the free Lie
    algebra, so ad of any Lie element is a combination of products of ad_a
    over letters a: the degree-d component is spanned by the degree-d
    generators and the brackets [E_a, E_gamma] of each letter a with each
    killed gamma of degree d - 1.  And that span is spanned by LS basis
    elements exactly when its rank equals the size of the union of the
    vectors' supports, which is then the component; otherwise
    ``IdealNotMonomial`` is raised.
    """
    gens = [tuple(g) for g in gens]
    for g in gens:
        if not is_lyndon(g):
            raise ValueError(f"generator {g} is not a Lyndon word")
        if not all(1 <= x <= m for x in g):
            raise ValueError(f"generator {g} has a letter outside alphabet of size {m}")
    killed, layer = set(), set()
    for d in range(1, max_degree + 1):
        rows = [{g: 1} for g in gens if len(g) == d]
        for gamma in layer:
            for a in range(1, m + 1):
                if (a,) != gamma:
                    bracket = commutator_ls(*sorted(((a,), gamma)), m)
                    rows.append({mono[0][0]: c for mono, c in bracket.terms.items()})
        layer = set().union(*rows)
        if _rank(rows) != len(layer):
            raise IdealNotMonomial(f"ideal mixes basis elements: {sorted(layer)}")
        killed |= layer
    return killed


def _rank(rows):
    """Rank of sparse rows {word: coefficient}, eliminating on each row's
    least word."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            f = Fraction(row[lead]) / pivots[lead][lead]
            for w, c in pivots[lead].items():
                _add(row, w, -f * c)
    return len(pivots)


# -- the one rewriter --------------------------------------------------------

def _add(terms, key, coeff):
    """terms[key] += coeff, deleting the entry when it cancels."""
    total = terms[key] + coeff if key in terms else coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def normal_order(poly, rule):
    """Rewrite a dict word-tuple -> QPoly to normal order.

    ``rule(a, b)`` returns the (replacement, k) pairs for an out-of-order
    adjacent pair a b, each standing for q^k times the replacement, or None
    when a b is in order.  The leftmost such pair of a word is replaced by
    each replacement, its coefficient shifted by q^k, until no word has one.
    Both rules below terminate: each replacement sorts the pair or shortens
    the word.
    """
    work = dict(poly)
    out = {}
    while work:
        word, coeff = work.popitem()
        for pos in range(len(word) - 1):
            pairs = rule(word[pos], word[pos + 1])
            if pairs is not None:
                for replacement, k in pairs:
                    _add(work, word[:pos] + replacement + word[pos + 2:], coeff.shift(k))
                break
        else:
            _add(out, word, coeff)
    return out


def normal_power(letters, n: int, normalize):
    """(sum of letters)^n as a dict word-tuple -> QPoly, one letter at a time:
    each step appends every letter on the right and ``normalize`` puts the
    result back in normal order."""
    if n < 0:
        raise ValueError("negative power")
    poly = {(): QPoly.one()}
    for _ in range(n):
        poly = normalize({word + (letter,): c for word, c in poly.items()
                          for letter in letters})
    return poly


# -- q-commutative d-alphabet ------------------------------------------------

def qcomm_rule(a, b):
    """d_v d_u -> q^v d_u d_v for v > u."""
    return (((b, a), a),) if a > b else None


@lru_cache(maxsize=None)
def qcomm_bell_recursive(n: int, k: int):
    """Route A: the q-weighted recursion over the d-alphabet, normal-ordered.

    B(n,k) = sum_l binom(n-1,l)_q B(l,k-1) d_{n-l}; returns a dict mapping
    sorted symbol tuples to QPoly coefficients.  The last symbol n-l tells
    the terms of different l apart, so they are collected without merging.
    """
    if n == 0 and k == 0:
        return {(): QPoly.one()}
    if k == 0 or k > n:
        return {}
    terms = {word + (n - l,): q_binomial(n - 1, l) * c
             for l in range(k - 1, n) for word, c in qcomm_bell_recursive(l, k - 1).items()}
    return normal_order(terms, qcomm_rule)


def qcomm_multinomial(ts, t: int = 0, binom=q_binomial):
    """(n)_q! / ((t)_q! prod_i ((i)_q!)^{t_i} (t_i)_{q^i}!) with n = t + sum_i i t_i,
    the coefficient of d_1^{t_1} d_2^{t_2} ... x^t in (x+y)^n.  A product of
    ``binom`` (``q_binomial``, or ``math.comb`` at q = 1) that never divides,
    as binom(ij, i)_q = (j)_{q^i} binom(ij - 1, i - 1)_q.
    """
    c, n = binom(t, t), t  # the 1 of binom's ring
    for i, ti in enumerate(ts, start=1):
        n += i * ti
        c *= binom(n, i * ti)
        for j in range(2, ti + 1):
            c *= binom(i * j - 1, i - 1)
    return c


def _d_word(ts):
    """The sorted symbol tuple d_1^{t_1} d_2^{t_2} ... as (1, .., 1, 2, ..)."""
    return tuple(i for i, t in enumerate(ts, start=1) for _ in range(t))


def qcomm_bell_closed(n: int, k: int):
    """Route B: the closed q-multinomial form, same key convention as route A.

    B(0,0) = 1, and no exponent vector exists for k = 0 < n or k > n.
    """
    return {_d_word(ts): qcomm_multinomial(ts)
            for ts in exponent_vectors(n, range(1, n - k + 2), k)}


def qcomm_bell_full(n: int):
    """Full q-commutative Bell polynomial: the partial ones over k, whose words
    have length k and so never collide."""
    return {word: c for k in range(n + 1) for word, c in qcomm_bell_closed(n, k).items()}


def qcomm_binomial(n: int):
    """(x+y)^n in the d-alphabet model: map (d-monomial, x-power) -> QPoly.

    Closed form ``qcomm_multinomial(ts, t)``.  Its agreement with the
    q-binomial-weighted Bell expansion binom(n, k)_q * qcomm_bell_full(k) is
    checked by ``verify qcomm``.
    """
    return {(_d_word(ts), t): qcomm_multinomial(ts, t)
            for t in range(n + 1) for ts in exponent_vectors(n - t, range(1, n - t + 1))}


# -- Blumen quotient ---------------------------------------------------------

_BLUMEN_RULES = {("x", "y"): ((("y", "x"), 1), (("h",), 0)),
                 ("x", "h"): ((("h", "x"), 2),),
                 ("h", "y"): ((("y", "h"), 2),)}


def blumen_normalize(poly):
    """Rewrite a dict word-tuple -> QPoly to normal order y..h..x.

    Rules: xy -> q yx + h; xh -> q^2 hx; hy -> q^2 yh.
    """
    return normal_order(poly, lambda a, b: _BLUMEN_RULES.get((a, b)))


def blumen_binomial(n: int):
    """(x+y)^n in the Blumen algebra as a map (r, s, t) -> QPoly for y^r h^s x^t.

    The Blumen algebra is the q-commutative d-alphabet cut off at order 2:
    y = d_1, h = d_2, and y^(k) = 0 for k >= 2.  So its closed form is
    ``qcomm_multinomial((r, s), t)`` = binom(n, t)_q binom(n - t, r)_q
    prod_{2 <= j <= s} (2j - 1)_q; ``verify blumen`` checks it by rewriting.
    """
    if n < 0:
        raise ValueError("negative power")
    return {(r, s, t): qcomm_multinomial((r, s), t)
            for r, s, t in exponent_vectors(n, (1, 2, 1))}


def blumen_binomial_rewrite(n: int):
    """(x+y)^n in the Blumen algebra, expanded word by word and normal-ordered.

    The second route to ``blumen_binomial``, keyed the same way; only
    ``verify blumen`` runs it.
    """
    poly = normal_power(("x", "y"), n, blumen_normalize)
    # a normal-ordered word is y^r h^s x^t, so its letter counts identify it
    return {(word.count("y"), word.count("h"), word.count("x")): c
            for word, c in poly.items()}


def blumen_higher_derivatives_vanish() -> bool:
    """In the Blumen algebra the q-derivatives of y stop at order 2.

    y^(k) = x y^(k-1) - q^k y^(k-1) x (the grading weight of y^(k-1) is k):
    y^(1) = xy - q yx normal-orders to h, and y^(2) = xh - q^2 hx to 0, so
    every later order is 0 as well.
    """
    one = QPoly.one()
    first = blumen_normalize({("x", "y"): one, ("y", "x"): -QPoly.q(1)})
    second = blumen_normalize({("x", "h"): one, ("h", "x"): -QPoly.q(2)})
    return first == {("h",): one} and second == {}


# -- Weyl-type quotient ------------------------------------------------------

_E2, _E12, _E1 = (2,), (1, 2), (1,)


def weyl_binomial(d: int) -> PBWPoly:
    """(E_1 + E_2)^d in the quotient where only E_2, E_12, E_1 survive.

    The Blumen binomial at q = 1 in integers, d!/(t2! 2^t12 t12! t1!), with
    y = E_2, h = E_12, x = E_1.  Its agreement with the killed free expansion
    and with the half-h binomial formula of the Heisenberg-Weyl algebra under
    h = E_12 is checked by ``verify blumen``, not here.
    """
    if d < 0:
        raise ValueError("negative power")
    return PBWPoly({weyl_monomial(r, s, t): qcomm_multinomial((r, s), t, comb)
                    for r, s, t in exponent_vectors(d, (1, 2, 1))}, 2)


def weyl_monomial(t2: int, t12: int, t1: int):
    """The PBW monomial E_2^t2 E_12^t12 E_1^t1, zero exponents left out."""
    return tuple(p for p in ((_E2, t2), (_E12, t12), (_E1, t1)) if p[1])
