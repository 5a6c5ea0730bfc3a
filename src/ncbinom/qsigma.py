"""Binomial expansions driven by an endomorphism sigma and a sigma-derivation.

A sigma-operator is any callable FreePoly -> FreePoly: ``identity``,
``grading_sigma``, or the closures built by ``ad_sigma``, ``endomorphism``,
``gen_derivation`` and ``step``.  The central objects are the operator-valued
shuffle polynomials SH-hat built from the step f -> delta(f) + y*f and sigma,
with delta = ad_sigma(x) for the binomial theorem, and their factorization
through the shifted steps D_m.  The one triangle ``_sh_hat_rows`` also gives
the Bell and q-Bell partials SH-hat_{k,n-k}(y*, ad_sigma x)(1).

The q-Bell polynomial B_q(n) = (ad_q x + y)^n(1) has a closed form in the
word basis, an identity checked against the step recursion ``qbell``:

    B_q(n) = sum_{b=0}^{n-1} (-1)^b q^{b(b+1)/2} [n-1, b]_q sum_{|P|=n-1-b} P y x^b

for n >= 1.  ad_q x(1) = 0, so the first step writes the word's last y; each
later step prepends x or y, or appends x with the factor -q^{|f|}.  If the
appends happen at the lengths S in {1, ..., n-1}, the words P y x^b collect
sum_{|S|=b} q^{sum S} = q^{b(b+1)/2} [n-1, b]_q, the subset-sum form of the
Gaussian binomial.  By the second binomial theorem the built-in Ore pairs,
the grading with ad_q x and the identity with ad x, have the coefficients
[n,k]_q B_q(k) and C(n,k) B(k) on x^{n-k}.  ``qbell_closed`` and
``ore_closed`` read these; the recursions and ``ore_binomial`` stay as the
second routes of ``verify`` and the route for operators from a spec.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import lru_cache, partial
from itertools import product
from math import comb

from .freepoly import FreePoly
from .rings import QPoly, q_binomial
from .words import content_words

Op = Callable[[FreePoly], FreePoly]

_X = FreePoly.letter(1, 2)
_Y = FreePoly.letter(2, 2)


class NotASigmaDerivation(ValueError):
    """The sigma-Leibniz law failed on a test pair."""


def identity(f: FreePoly) -> FreePoly:
    return f


def grading_sigma(f: FreePoly) -> FreePoly:
    """sigma(w) = q^{|w|} w on each word; multiplicative, fixes the unit.

    q^{|w|} * c shifts the coefficients of c; a coefficient that is neither
    a QPoly nor an exact rational raises TypeError.
    """
    return FreePoly({w: (c if isinstance(c, QPoly) else QPoly.const(c)).shift(len(w))
                     for w, c in f.terms.items()}, f.m)


def ad_sigma(x: FreePoly, sigma: Op) -> Op:
    """ad_sigma(x): f -> x*f - sigma(f)*x, a sigma-derivation."""
    return lambda f: x * f - sigma(f) * x


def step(delta: Op, y: FreePoly) -> Op:
    """f -> delta(f) + y*f, the step of the binomial recursion."""
    return lambda f: delta(f) + y * f


def _word_image(w, memo: dict, images: dict) -> FreePoly:
    """memo[w], filled as memo[w[:-1]] * images[w[-1]] down to a word in memo."""
    img = memo.get(w)
    if img is None:
        img = memo[w] = _word_image(w[:-1], memo, images) * images[w[-1]]
    return img


def endomorphism(images, m: int = 2) -> Op:
    """Algebra endomorphism given by the images of the generators 1..m.

    The returned phi memoises the image of every word it meets, and of each
    prefix, in a dict of its closure: two endomorphisms never share entries,
    and nothing in the closure refers back to phi, so it is freed by
    reference counting alone.
    """
    images = {x: images[x] for x in range(1, m + 1)}
    memo = {(): FreePoly.unit(m)}

    def phi(f: FreePoly) -> FreePoly:
        out = FreePoly.zero(f.m)
        for w, c in f.terms.items():
            out = out + _word_image(w, memo, images).scale(c)
        return out
    return phi


def gen_derivation(images, sigma: Op, m: int = 2) -> Op:
    """sigma-derivation defined by images of the generators 1..m.

    Extended by the Leibniz rule: on a word x_1...x_n the value is
    sum_i sigma(x_1...x_{i-1}) * delta(x_i) * x_{i+1}...x_n.
    """
    images = {x: images[x] for x in range(1, m + 1)}

    def delta(f: FreePoly) -> FreePoly:
        out = FreePoly.zero(f.m)
        for w, c in f.terms.items():
            for i, letter in enumerate(w):
                part = (sigma(FreePoly.word(w[:i], f.m))
                        * images[letter]
                        * FreePoly.word(w[i + 1:], f.m))
                out = out + part.scale(c)
        return out
    return delta


def check_sigma_derivation(delta: Op, sigma: Op, m: int = 2,
                           trials: int = 20, max_len: int = 3, seed: int = 7):
    """Property-test delta(uv) = delta(u)v + sigma(u)delta(v) on random words."""
    rng = random.Random(seed)
    for _ in range(trials):
        u = FreePoly.word(tuple(rng.randint(1, m) for _ in range(rng.randint(0, max_len))), m)
        v = FreePoly.word(tuple(rng.randint(1, m) for _ in range(rng.randint(0, max_len))), m)
        if delta(u * v) != delta(u) * v + sigma(u) * delta(v):
            raise NotASigmaDerivation(
                f"Leibniz law failed on {u!r}, {v!r}")


def _sh_hat_rows(widths, step: Op, sigma: Op, seed: FreePoly):
    """Rows of v[i][j] = sigma(v[i][j-1]) + step(v[i-1][j]), one per width.

    v[0][j] = sigma^j(seed) and v[i][0] = step(v[i-1][0]); row i holds
    widths[i] entries, and the widths must not increase.  v[k][j] is the
    operator shuffle polynomial SH-hat_{k,j}(step, sigma) applied to seed.
    """
    row = [seed]
    for _ in range(widths[0] - 1):
        row.append(sigma(row[-1]))
    yield row
    for width in widths[1:]:
        prev, row = row, [step(row[0])]
        for j in range(1, width):
            row.append(sigma(row[-1]) + step(prev[j]))
        yield row


def _sh_hat_coeffs(n: int, step: Op, sigma: Op, seed: FreePoly) -> list:
    """[SH-hat_{k,n-k}(step, sigma)(seed) for k = 0..n], read off one triangle
    row by row; a negative n raises ValueError."""
    if n < 0:
        raise ValueError("negative index")
    rows = _sh_hat_rows(range(n + 1, 0, -1), step, sigma, seed)
    return [row[n - k] for k, row in enumerate(rows)]


@lru_cache(maxsize=None)
def bell_partials(n: int, sigma: Op = identity) -> tuple:
    """(B(n,0), ..., B(n,n)) with B(n,k) = SH-hat_{k,n-k}(y*, ad_sigma x)(1) the
    part of (ad_sigma x + y)^n(1) with k letters y: the Bell partials for
    sigma = identity, the q-Bell ones for grading_sigma."""
    return tuple(_sh_hat_coeffs(n, lambda f: _Y * f, ad_sigma(_X, sigma), FreePoly.unit(2)))


def sh_hat_apply(k: int, j: int, x: FreePoly, y: FreePoly, sigma: Op,
                 seed: FreePoly = None) -> FreePoly:
    """Value of the operator shuffle polynomial SH-hat_{k,j} on a seed element.

    The step operator is ad_sigma x + y; defaults to seed = 1.
    """
    if k < 0 or j < 0:
        raise ValueError("negative index")
    if seed is None:
        seed = FreePoly.unit(x.m)
    for row in _sh_hat_rows([j + 1] * (k + 1), step(ad_sigma(x, sigma), y), sigma, seed):
        pass
    return row[j]


def sh_hat_triangle(max_n: int, sigma: Op, seed: FreePoly) -> list:
    """rows[k][j] = SH-hat_{k,j}(ad_sigma x + y, sigma)(seed) for k + j <= max_n,
    with x, y the letters 1, 2.

    SH-hat_{k,j} does not depend on n = k + j, so every anti-diagonal
    n <= max_n of (x+y)^n is read off this one triangle.
    """
    if max_n < 0:
        raise ValueError("negative degree")
    return list(_sh_hat_rows(range(max_n + 1, 0, -1), step(ad_sigma(_X, sigma), _Y),
                             sigma, seed))


def d_m_sums(j: int, kmax: int, sigma: Op, f: FreePoly) -> list:
    """[sum over 0<=m_1<=...<=m_k<=j of D_{m_1}...D_{m_k} sigma^j(f) for k = 0..kmax],
    where D_m = ad_sigma(sigma^m(x)) + sigma^m(y) is the m-shifted step.

    The paper factors SH-hat_{k,j} through these sums.  One DP over t = j..0
    of P[t][k], the sum with every m_i >= t: P[t][0] = sigma^j(f) and
    P[t][k] = P[t+1][k] + D_t(P[t][k-1]), so no index tuple is enumerated.
    """
    if j < 0 or kmax < 0:
        raise ValueError("negative index")
    ds, xm, ym = [], _X, _Y
    for _ in range(j + 1):
        ds.append(step(ad_sigma(xm, sigma), ym))
        xm, ym = sigma(xm), sigma(ym)
    g = f
    for _ in range(j):
        g = sigma(g)
    sums = [g] + [FreePoly.zero(f.m)] * kmax
    for d in reversed(ds):
        for k in range(1, kmax + 1):
            sums[k] = sums[k] + d(sums[k - 1])
    return sums


_AD_Q = ad_sigma(_X, grading_sigma)


@lru_cache(maxsize=None)
def qbell(n: int) -> FreePoly:
    """(ad_q x + y)^n applied to 1, over Q[q]; a negative n raises
    ValueError."""
    if n < 0:
        raise ValueError("negative index")
    if n == 0:
        return FreePoly.unit(2)
    prev = qbell(n - 1)
    return _AD_Q(prev) + _Y * prev


def _qbell_coeff(n: int, b: int):
    """c_b = (-1)^b q^{b(b+1)/2} [n-1, b]_q, the coefficient of the words
    P y x^b in B_q(n); c_0 is the int 1, as the step recursion leaves it."""
    if b == 0:
        return 1
    c = q_binomial(n - 1, b).shift(b * (b + 1) // 2)
    return -c if b % 2 else c


def _bell_words(n: int, coeff, k: int = None) -> FreePoly:
    """sum_b coeff(b) sum_P P y x^b over the words P of length n-1-b, only
    those with k-1 letters y when k is given; coeff(0) on the empty word at
    n = 0.  Each coefficient is computed once and shared by its words."""
    if n == 0 and not k:
        return FreePoly({(): coeff(0)}, 2)
    if k == 0:
        return FreePoly.zero(2)
    terms = {}
    for b in range(n - (k or 1) + 1):
        c, tail, length = coeff(b), (2,) + (1,) * b, n - 1 - b
        heads = (product((1, 2), repeat=length) if k is None
                 else content_words((length - k + 1, k - 1)))
        for head in heads:
            terms[(*head, *tail)] = c
    return FreePoly._make(terms, 2)


def qbell_closed(n: int, k: int = None) -> FreePoly:
    """B_q(n) by the closed word-basis formula of the module docstring, or its
    part B_q(n,k) with k letters y: zero for k > n; a negative n or k raises
    ValueError.  Equals ``qbell(n)`` and ``bell_partials(n, grading_sigma)[k]``."""
    if n < 0 or (k is not None and k < 0):
        raise ValueError("negative index")
    return _bell_words(n, partial(_qbell_coeff, n), k)


@lru_cache(maxsize=None)
def y_derivative_q(k: int) -> FreePoly:
    """y^(k): iterated ad_q x of y, with y^(0) = y; a negative k raises
    ValueError."""
    if k < 0:
        raise ValueError("negative index")
    if k == 0:
        return _Y
    return _AD_Q(y_derivative_q(k - 1))


def qbell_partial_alt(n: int, k: int) -> FreePoly:
    """Alternative recursion: sum_l binom(n-1,l)_q B(l,k-1) y^(n-1-l).

    The derivative order n-1-l (rather than n-l) is the reading that agrees
    with the step recursion; the discrepancy is a documented finding.
    """
    if n == 0 and k == 0:
        return FreePoly.unit(2)
    if k == 0 or k > n:
        return FreePoly.zero(2)
    out = FreePoly.zero(2)
    for l in range(k - 1, n):
        term = qbell_partial_alt(l, k - 1) * y_derivative_q(n - 1 - l)
        out = out + term.map_coeffs(lambda c, b=q_binomial(n - 1, l): b * c)
    return out


def binomial_q_verify(n: int) -> bool:
    """(x+y)^n = sum_k binom(n,k)_q qbell(k) x^{n-k} in Q[q]<x,y>."""
    total = FreePoly.zero(2)
    for k in range(n + 1):
        part = qbell(k) * _X ** (n - k)
        total = total + part.map_coeffs(lambda c, b=q_binomial(n, k): b * c)
    return total == (_X + _Y) ** n


def at_q_one(f: FreePoly) -> FreePoly:
    """f with q specialized to 1 in every q-polynomial coefficient."""
    return f.map_coeffs(lambda c: c(1) if isinstance(c, QPoly) else c)


def qbell_at_one(n: int) -> FreePoly:
    """qbell(n) with q specialized to 1; should equal the plain Bell polynomial."""
    return at_q_one(qbell(n))


def ore_binomial(n: int, sigma: Op, delta: Op, m: int = 2):
    """Coefficient list [SH_{k,n-k}(delta + y, sigma)(1)] of (x+y)^n when
    xy = sigma(y)x + delta(y).

    delta's sigma-Leibniz law is property-tested first.
    """
    if n < 0:
        raise ValueError("negative power")
    check_sigma_derivation(delta, sigma, m)
    return _sh_hat_coeffs(n, step(delta, FreePoly.letter(2, m)), sigma, FreePoly.unit(m))


def ore_closed(n: int, sigma: Op) -> list:
    """``ore_binomial(n, sigma, ad_sigma(x, sigma))`` for the built-in sigmas,
    by the second binomial theorem: [n,k]_q B_q(k) on x^{n-k} for
    grading_sigma (the int 1 for [n,n]_q) and C(n,k) B(k), with
    B(k) = sum_b (-1)^b C(k-1,b) sum_P P y x^b, for identity."""
    if n < 0:
        raise ValueError("negative power")
    if sigma is grading_sigma:
        def coeff(k, b):
            return (1 if k == n else q_binomial(n, k)) * _qbell_coeff(k, b)
    elif sigma is identity:
        def coeff(k, b):
            return (-1) ** b * comb(k - 1, b) * comb(n, k) if k else 1
    else:
        raise ValueError("the closed form covers only the identity and the grading")
    return [_bell_words(k, partial(coeff, k)) for k in range(n + 1)]
