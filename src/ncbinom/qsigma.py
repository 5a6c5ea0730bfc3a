"""Binomial expansions driven by an endomorphism sigma and a sigma-derivation.

A sigma-operator is any callable FreePoly -> FreePoly: ``identity``,
``grading_sigma``, or the closures built by ``ad_sigma``, ``endomorphism``,
``gen_derivation`` and ``step``.  The central objects are the operator-valued
shuffle polynomials SH-hat built from the step f -> delta(f) + y*f and sigma,
with delta = ad_sigma(x) for the binomial theorem; their factorization through
the shifted steps D_m; and the q-specialization giving q-Bell differential
polynomials over Q[q].
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from functools import lru_cache
from math import comb

from .bell import bell_word
from .freepoly import FreePoly
from .rings import QPoly, q_binomial

Op = Callable[[FreePoly], FreePoly]

_X = FreePoly.letter(1, 2)
_Y = FreePoly.letter(2, 2)


class NotASigmaDerivation(ValueError):
    """The sigma-Leibniz law failed on a test pair."""


def identity(f: FreePoly) -> FreePoly:
    return f


def grading_sigma(f: FreePoly) -> FreePoly:
    """sigma(w) = q^{|w|} w on each word; multiplicative, fixes the unit."""
    return FreePoly({w: QPoly.q(len(w)) * c for w, c in f.terms.items()}, f.m)


def ad_sigma(x: FreePoly, sigma: Op) -> Op:
    """ad_sigma(x): f -> x*f - sigma(f)*x, a sigma-derivation."""
    return lambda f: x * f - sigma(f) * x


def step(delta: Op, y: FreePoly) -> Op:
    """f -> delta(f) + y*f, the step of the binomial recursion."""
    return lambda f: delta(f) + y * f


def endomorphism(images, m: int = 2) -> Op:
    """Algebra endomorphism given by the images of the generators 1..m."""
    images = {x: images[x] for x in range(1, m + 1)}

    def phi(f: FreePoly) -> FreePoly:
        out = FreePoly.zero(f.m)
        for w, c in f.terms.items():
            img = FreePoly.unit(f.m)
            for x in w:
                img = img * images[x]
            out = out + img.scale(c)
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
    """[SH-hat_{k,n-k}(step, sigma)(seed) for k = 0..n], read off one triangle."""
    rows = _sh_hat_rows(range(n + 1, 0, -1), step, sigma, seed)
    return [row[n - k] for k, row in enumerate(rows)]


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


def theorem_b_verify(n: int, sigma: Op) -> bool:
    """Check (x+y)^n = sum_k SH-hat_{k,n-k}(1) x^{n-k} for letters x=1, y=2."""
    coeffs = _sh_hat_coeffs(n, step(ad_sigma(_X, sigma), _Y), sigma, FreePoly.unit(2))
    total = FreePoly.zero(2)
    for k, c in enumerate(coeffs):
        total = total + c * _X ** (n - k)
    return total == (_X + _Y) ** n


def d_m_factorization_check(n: int, k: int, sigma: Op) -> bool:
    """SH-hat_{k,n-k} = sum over 0<=m_1<=...<=m_k<=n-k of D_{m_1}...D_{m_k} sigma^{n-k},
    where D_m = ad_sigma(sigma^m(x)) + sigma^m(y) is the m-shifted step.

    Verified by applying both sides to a basket of test elements.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    ds, xm, ym = [], _X, _Y
    for _ in range(n - k + 1):
        ds.append(step(ad_sigma(xm, sigma), ym))
        xm, ym = sigma(xm), sigma(ym)
    for f in (FreePoly.unit(2), _X, _Y, _X * _Y + _Y * _X):
        lhs = sh_hat_apply(k, n - k, _X, _Y, sigma, f)
        g0 = f
        for _ in range(n - k):
            g0 = sigma(g0)
        rhs = FreePoly.zero(2)
        for ms in itertools.combinations_with_replacement(range(n - k + 1), k):
            g = g0
            for m in reversed(ms):
                g = ds[m](g)
            rhs = rhs + g
        if lhs != rhs:
            return False
    return True


_AD_Q = ad_sigma(_X, grading_sigma)


@lru_cache(maxsize=None)
def qbell(n: int) -> FreePoly:
    """(ad_q x + y)^n applied to 1, over Q[q]."""
    if n == 0:
        return FreePoly.unit(2)
    prev = qbell(n - 1)
    return _AD_Q(prev) + _Y * prev


@lru_cache(maxsize=None)
def qbell_partial(n: int, k: int) -> FreePoly:
    """Partial q-Bell polynomial: the part of qbell(n) with k letters y.

    Recursion B(n,k) = y B(n-1,k-1) + ad_q x (B(n-1,k)).  ``verify qbell``
    checks that the sum over k rebuilds qbell(n) and that the independent
    q-binomial-weighted recursion ``qbell_partial_alt`` agrees.
    """
    if n == 0 and k == 0:
        return FreePoly.unit(2)
    if k == 0 or k > n:
        return FreePoly.zero(2)
    return _Y * qbell_partial(n - 1, k - 1) + _AD_Q(qbell_partial(n - 1, k))


@lru_cache(maxsize=None)
def y_derivative_q(k: int) -> FreePoly:
    """y^(k): iterated ad_q x of y, with y^(0) = y."""
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


def qbell_at_one(n: int) -> FreePoly:
    """qbell(n) with q specialized to 1; should equal the plain Bell polynomial."""
    return qbell(n).map_coeffs(lambda c: c(1) if isinstance(c, QPoly) else c)


def ore_binomial(n: int, sigma: Op, delta: Op, m: int = 2):
    """Coefficient list [SH_{k,n-k}(delta + y, sigma)(1)] of (x+y)^n when
    xy = sigma(y)x + delta(y).

    delta's sigma-Leibniz law is property-tested first.
    """
    if n < 0:
        raise ValueError("negative power")
    check_sigma_derivation(delta, sigma, m)
    return _sh_hat_coeffs(n, step(delta, FreePoly.letter(2, m)), sigma, FreePoly.unit(m))


def bell_compare_sigma_id(n: int) -> bool:
    """With sigma = id: SH-hat_{k,n-k}(1) = binom(n,k) * (ad x + y)^k(1)."""
    coeffs = _sh_hat_coeffs(n, step(ad_sigma(_X, identity), _Y), identity, FreePoly.unit(2))
    return coeffs == [bell_word(k).scale(comb(n, k)) for k in range(n + 1)]
