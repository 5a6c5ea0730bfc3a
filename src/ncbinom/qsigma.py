"""Binomial expansions driven by an endomorphism sigma and a sigma-derivation.

A sigma-operator is any callable FreePoly -> FreePoly: ``identity``,
``grading_sigma``, or the closures built by ``ad_sigma``, ``endomorphism``,
``gen_derivation`` and ``step``.  The central objects are the operator-valued
shuffle polynomials SH-hat built from the step f -> delta(f) + y*f and sigma,
with delta = ad_sigma(x) for the binomial theorem, and their factorization
through the shifted steps D_m.  The one triangle ``_sh_hat_rows`` also gives
the Bell and q-Bell partials SH-hat_{k,n-k}(y*, ad_sigma x)(1).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import lru_cache

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
    """sigma(w) = q^{|w|} w on each word; multiplicative, fixes the unit.

    q^{|w|} * c shifts the coefficients of c; a coefficient that is neither
    a QPoly nor an exact rational (a ModInt, say) raises TypeError.
    """
    return FreePoly({w: (c if isinstance(c, QPoly) else QPoly.const(c)).shift(len(w))
                     for w, c in f.terms.items()}, f.m)


def ad_sigma(x: FreePoly, sigma: Op) -> Op:
    """ad_sigma(x): f -> x*f - sigma(f)*x, a sigma-derivation."""
    return lambda f: x * f - sigma(f) * x


def step(delta: Op, y: FreePoly) -> Op:
    """f -> delta(f) + y*f, the step of the binomial recursion."""
    return lambda f: delta(f) + y * f


def endomorphism(images, m: int = 2) -> Op:
    """Algebra endomorphism given by the images of the generators 1..m.

    The returned phi memoises the image of every word it meets as
    image(w[:-1]) * image(w[-1:]).  The memo lives in phi's closure, so
    two endomorphisms never share entries.
    """
    images = {x: images[x] for x in range(1, m + 1)}
    memo = {(): FreePoly.unit(m)}

    def image(w):
        img = memo.get(w)
        if img is None:
            img = memo[w] = image(w[:-1]) * images[w[-1]]
        return img

    def phi(f: FreePoly) -> FreePoly:
        out = FreePoly.zero(f.m)
        for w, c in f.terms.items():
            out = out + image(w).scale(c)
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


def partial_at(parts: tuple, k: int) -> FreePoly:
    """Entry k of a tuple from ``bell_partials``: zero for k > n; a negative k
    raises ValueError."""
    if k < 0:
        raise ValueError("negative index")
    return parts[k] if k < len(parts) else FreePoly.zero(2)


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
