"""Structured quotient algebras where the classical binomial formulas live.

Four quotient models: generic kill-sets of Lyndon-Shirshov generators, the
Weyl-type quotient (only E_2, E_12, E_1 survive), the q-commutative ordered
d-alphabet (d_v d_u = q^v d_u d_v), and the Blumen rewriting system
(xy -> qyx + h, xh -> q^2 hx, hy -> q^2 yh).  Production calls return the
closed formulas and compute each result once; the independent expansion
routes (``qcomm_bell_recursive``, ``blumen_binomial_rewrite``) are run only
by ``verify qcomm`` and ``verify blumen``, which compare them explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .pbw import PBWPoly, commutator_ls
from .rings import (QPoly, exponent_vectors, q_binomial, q_factorial,
                    q_integer, qpoly_exact_div)
from .words import is_lyndon, lyndon_enumerate


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

    Works degree by degree: the ideal component is spanned by same-degree
    generators plus brackets of lower-degree members with basis elements.
    Requires (and checks) that each component is spanned by a subset of the
    E_alpha themselves; the structured examples used here all satisfy this.
    """
    gens = [tuple(g) for g in gens]
    for g in gens:
        if not is_lyndon(g):
            raise ValueError(f"generator {g} is not a Lyndon word")
    all_lyndon = lyndon_enumerate(m, max_degree)
    killed = set()
    for d in range(1, max_degree + 1):
        basis = [w for w in all_lyndon if len(w) == d]
        idx = {w: i for i, w in enumerate(basis)}
        vectors = []
        for g in gens:
            if len(g) == d:
                v = [Fraction(0)] * len(basis)
                v[idx[g]] = Fraction(1)
                vectors.append(v)
        for gamma in killed:
            db = d - len(gamma)
            if db < 1:
                continue
            for beta in all_lyndon:
                if len(beta) != db or beta == gamma:
                    continue
                if beta < gamma:
                    bracket = commutator_ls(beta, gamma, m)
                else:
                    bracket = commutator_ls(gamma, beta, m).scale(-1)
                v = [Fraction(0)] * len(basis)
                for mono, c in bracket.terms.items():
                    if not (len(mono) == 1 and mono[0][1] == 1):
                        raise IdealNotMonomial(f"non-Lie bracket term {mono}")
                    v[idx[mono[0][0]]] = Fraction(c)
                vectors.append(v)
        for w in _row_reduce_unit_support(vectors, basis):
            killed.add(w)
    return killed


def _row_reduce_unit_support(vectors, basis):
    """Row-reduce; return the basis words spanned, insisting each reduced row
    touches a single coordinate."""
    rows = [list(v) for v in vectors]
    n = len(basis)
    pivots = {}
    for row in rows:
        for col in range(n):
            if row[col] and col in pivots:
                f = row[col]
                row[:] = [a - f * b for a, b in zip(row, pivots[col])]
        lead = next((c for c in range(n) if row[c]), None)
        if lead is None:
            continue
        row[:] = [a / row[lead] for a in row]
        for col, prow in pivots.items():
            if prow[lead]:
                f = prow[lead]
                prow[:] = [a - f * b for a, b in zip(prow, row)]
        pivots[lead] = row
    out = []
    for col, row in pivots.items():
        support = [c for c in range(n) if row[c]]
        if support != [col]:
            raise IdealNotMonomial(
                f"ideal mixes basis elements: {[basis[c] for c in support]}")
        out.append(basis[col])
    return out


# -- Weyl-type quotient ------------------------------------------------------

_E2, _E12, _E1 = (2,), (1, 2), (1,)


def weyl_binomial(d: int) -> PBWPoly:
    """(E_1 + E_2)^d in the quotient where only E_2, E_12, E_1 survive.

    Closed form d!/(t2! 2^t12 t12! t1!).  Its agreement with the killed free
    expansion and with the half-h binomial formula of the Heisenberg-Weyl
    algebra under h = E_12 is checked by ``verify blumen``, not here.
    """
    if d < 0:
        raise ValueError("negative power")
    terms = {}
    for t12 in range(d // 2 + 1):
        for t2 in range(d - 2 * t12 + 1):
            t1 = d - 2 * t12 - t2
            coeff = factorial(d) // (
                factorial(t2) * 2 ** t12 * factorial(t12) * factorial(t1))
            terms[weyl_monomial(t2, t12, t1)] = coeff
    return PBWPoly(terms, 2)


def weyl_monomial(t2: int, t12: int, t1: int):
    """The PBW monomial E_2^t2 E_12^t12 E_1^t1, zero exponents left out."""
    return tuple(p for p in ((_E2, t2), (_E12, t12), (_E1, t1)) if p[1])


# -- q-commutative d-alphabet ------------------------------------------------

def qcomm_normalize(word):
    """Normal-order a word in the symbols d_i under d_v d_u = q^v d_u d_v (v > u).

    Bubble sort; each adjacent transposition of a descent (v, u) costs q^v.
    """
    symbols = list(word)
    power = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(symbols) - 1):
            if symbols[i] > symbols[i + 1]:
                power += symbols[i]
                symbols[i], symbols[i + 1] = symbols[i + 1], symbols[i]
                changed = True
    return QPoly.q(power), tuple(symbols)


def _qc_add(terms, word, coeff):
    factor, normal = qcomm_normalize(word)
    c = factor * coeff
    if normal in terms:
        terms[normal] = terms[normal] + c
    else:
        terms[normal] = c
    if not terms[normal]:
        del terms[normal]


@lru_cache(maxsize=None)
def qcomm_bell_recursive(n: int, k: int):
    """Route A: the q-weighted recursion over the d-alphabet, normal-ordered.

    B(n,k) = sum_l binom(n-1,l)_q B(l,k-1) d_{n-l}; returns a dict mapping
    sorted symbol tuples to QPoly coefficients.
    """
    if n == 0 and k == 0:
        return {(): QPoly.one()}
    if k == 0 or k > n:
        return {}
    out = {}
    for l in range(k - 1, n):
        b = q_binomial(n - 1, l)
        for word, c in qcomm_bell_recursive(l, k - 1).items():
            _qc_add(out, word + (n - l,), b * c)
    return out


def _qcomm_denominator(ts) -> QPoly:
    """prod_i ((i)_q!)^{t_i} (t_i)_{q^i}! for exponents ts = (t_1, t_2, ...)."""
    den = QPoly.one()
    for i, t in enumerate(ts, start=1):
        den = den * q_factorial(i) ** t * q_factorial(t).subs_q_power(i)
    return den


def qcomm_multinomial(ts) -> QPoly:
    """(n)_q! / prod_i ((i)_q!)^{t_i} (t_i)_{q^i}! for exponents ts = (t_1, t_2, ...)."""
    n = sum(i * t for i, t in enumerate(ts, start=1))
    return qpoly_exact_div(q_factorial(n), _qcomm_denominator(ts))


def qcomm_bell_closed(n: int, k: int):
    """Route B: the closed q-multinomial form, same key convention as route A."""
    if n == 0 and k == 0:
        return {(): QPoly.one()}
    if k == 0 or k > n:
        return {}
    out = {}
    for ts in exponent_vectors(n, range(1, n - k + 2), k):
        word = tuple(i for i, t in enumerate(ts, start=1) for _ in range(t))
        out[word] = qcomm_multinomial(ts)
    return out


def qcomm_bell(n: int, k: int):
    """q-commutative partial Bell coefficients, by the closed form.

    ``verify qcomm`` compares the closed form with the recursion.
    """
    return qcomm_bell_closed(n, k)


def qcomm_bell_full(n: int):
    """Full q-commutative Bell polynomial: sum of the partial ones over k."""
    out = {}
    for k in range(n + 1):
        for word, c in qcomm_bell(n, k).items():
            out[word] = out[word] + c if word in out else c
    return out


def qcomm_binomial(n: int):
    """(x+y)^n in the d-alphabet model: map (d-monomial, x-power) -> QPoly.

    Closed form (n)_q!/(prod ((i)_q!)^{t_i}(t_i)_{q^i}! (t)_q!).  Its
    agreement with the q-binomial-weighted Bell expansion
    binom(n, k)_q * qcomm_bell_full(k) is checked by ``verify qcomm``.
    """
    out = {}
    for t in range(n + 1):
        k = n - t
        for ts in exponent_vectors(k, range(1, k + 1)):
            word = tuple(i for i, ti in enumerate(ts, start=1) for _ in range(ti))
            den = q_factorial(t) * _qcomm_denominator(ts)
            out[(word, t)] = qpoly_exact_div(q_factorial(n), den)
    return out


# -- Blumen quotient ---------------------------------------------------------

_ORDER = {"y": 0, "h": 1, "x": 2}


def blumen_normalize(poly):
    """Rewrite a dict word-tuple -> QPoly to normal order y..h..x.

    Rules: xy -> q yx + h; xh -> q^2 hx; hy -> q^2 yh.  Each step strictly
    reduces the number of out-of-order adjacent pairs weighted by position,
    so the loop terminates.
    """
    work = dict(poly)
    out = {}
    while work:
        word, coeff = work.popitem()
        pos = next((i for i in range(len(word) - 1)
                    if _ORDER[word[i]] > _ORDER[word[i + 1]]), None)
        if pos is None:
            out[word] = out[word] + coeff if word in out else coeff
            if not out[word]:
                del out[word]
            continue
        a, b = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        def put(w, c):
            work[w] = work[w] + c if w in work else c
            if not work[w]:
                del work[w]
        if (a, b) == ("x", "y"):
            put(head + ("y", "x") + tail, QPoly.q(1) * coeff)
            put(head + ("h",) + tail, coeff)
        elif (a, b) == ("x", "h"):
            put(head + ("h", "x") + tail, QPoly.q(2) * coeff)
        elif (a, b) == ("h", "y"):
            put(head + ("y", "h") + tail, QPoly.q(2) * coeff)
    return out


def blumen_binomial(n: int):
    """(x+y)^n in the Blumen algebra as a map (r, s, t) -> QPoly for y^r h^s x^t.

    Closed q-multinomial form (n)_q!/((r)_q!(2)_q^s(s)_{q^2}!(t)_q!).
    ``verify blumen`` compares it with ``blumen_binomial_rewrite`` and, at
    q=1, with the Weyl form.
    """
    if n < 0:
        raise ValueError("negative power")
    out = {}
    for s in range(n // 2 + 1):
        for r in range(n - 2 * s + 1):
            t = n - 2 * s - r
            den = (q_factorial(r) * q_integer(2) ** s *
                   q_factorial(s).subs_q_power(2) * q_factorial(t))
            out[(r, s, t)] = qpoly_exact_div(q_factorial(n), den)
    return out


def blumen_binomial_rewrite(n: int):
    """(x+y)^n in the Blumen algebra, expanded word by word and normal-ordered.

    The second route to ``blumen_binomial``, keyed the same way; only
    ``verify blumen`` runs it.
    """
    if n < 0:
        raise ValueError("negative power")
    poly = {(): QPoly.one()}
    for _ in range(n):
        nxt = {}
        for word, c in poly.items():
            for letter in ("x", "y"):
                key = word + (letter,)
                nxt[key] = nxt[key] + c if key in nxt else c
        poly = blumen_normalize(nxt)
    # a normal-ordered word is y^r h^s x^t, so its letter counts identify it
    return {(word.count("y"), word.count("h"), word.count("x")): c
            for word, c in poly.items()}


def blumen_weyl_compare(n: int) -> bool:
    """At q=1 the Blumen expansion collapses to the Weyl-quotient binomial."""
    weyl = weyl_binomial(n)
    for (r, s, t), c in blumen_binomial(n).items():
        if c(1) != weyl.coeff(weyl_monomial(r, s, t)):
            return False
    return True


def blumen_higher_derivatives_vanish(n_max: int = 5) -> bool:
    """In the Blumen algebra the iterated q-derivatives of y vanish from order 2.

    y^(0) = y, y^(1) normal-orders to h, and y^(k) = x y^(k-1) - q^k y^(k-1) x
    (the grading weight of y^(k-1) is k) is zero for k >= 2.
    """
    current = {("y",): QPoly.one()}
    for k in range(1, n_max + 1):
        nxt = {}
        for word, c in current.items():
            left = ("x",) + word
            nxt[left] = nxt.get(left, QPoly.zero()) + c
            right = word + ("x",)
            nxt[right] = nxt.get(right, QPoly.zero()) - QPoly.q(k) * c
        current = blumen_normalize(nxt)
        if k == 1:
            if current != {("h",): QPoly.one()}:
                return False
        elif current:
            return False
    return True
