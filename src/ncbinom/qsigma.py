"""Binomial expansions driven by an endomorphism sigma and its adjoint derivation.

Operators are small immutable composition trees applied lazily to free
polynomials.  The central objects are the operator-valued shuffle polynomials
SH-hat built from ad_sigma(x) + y and sigma, their factorization through the
shifted operators D_m, and the q-specialization giving q-Bell differential
polynomials over Q[q].
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb

from .bell import bell_word
from .freepoly import FreePoly
from .rings import QPoly, q_binomial


class NotUnital(ValueError):
    """An endomorphism must send 1 to 1."""


class NotASigmaDerivation(ValueError):
    """The sigma-Leibniz law failed on a test pair."""


class Operator:
    """Base class: a linear map on FreePoly, applied via __call__."""

    def __call__(self, f: FreePoly) -> FreePoly:
        raise NotImplementedError

    def __add__(self, other: "Operator") -> "Operator":
        return OpSum(self, other)

    def __matmul__(self, other: "Operator") -> "Operator":
        return OpCompose(self, other)

    def power(self, n: int) -> "Operator":
        op = IdentityOp()
        for _ in range(n):
            op = OpCompose(self, op)
        return op


class IdentityOp(Operator):
    def __call__(self, f):
        return f


class Endomorphism(Operator):
    """Algebra endomorphism given by the images of the generators."""

    def __init__(self, images, m: int = 2, unit_image=None):
        self.m = m
        self.images = {x: images[x] for x in range(1, m + 1)}
        if unit_image is not None and unit_image != FreePoly.unit(m):
            raise NotUnital("endomorphism must fix the unit")

    def __call__(self, f: FreePoly) -> FreePoly:
        out = FreePoly.zero(f.m)
        for w, c in f.terms.items():
            img = FreePoly.unit(f.m)
            for x in w:
                img = img * self.images[x]
            out = out + img.scale(c)
        return out


def identity_endomorphism(m: int = 2) -> Endomorphism:
    return Endomorphism({x: FreePoly.letter(x, m) for x in range(1, m + 1)}, m)


class GradingSigma(Operator):
    """sigma(w) = q^{|w|} w on each word; multiplicative, fixes the unit."""

    def __init__(self, m: int = 2):
        self.m = m

    def __call__(self, f: FreePoly) -> FreePoly:
        return FreePoly({w: QPoly.q(len(w)) * c for w, c in f.terms.items()}, f.m)


class AdSigma(Operator):
    """ad_sigma(x): f -> x*f - sigma(f)*x, a sigma-derivation."""

    def __init__(self, x: FreePoly, sigma: Operator):
        self.x = x
        self.sigma = sigma

    def __call__(self, f: FreePoly) -> FreePoly:
        return self.x * f - self.sigma(f) * self.x


class GenDerivation(Operator):
    """sigma-derivation defined by images of the generators.

    Extended by the Leibniz rule: on a word x_1...x_n the value is
    sum_i sigma(x_1...x_{i-1}) * delta(x_i) * x_{i+1}...x_n.
    """

    def __init__(self, images, sigma: Operator, m: int = 2):
        self.m = m
        self.images = {x: images[x] for x in range(1, m + 1)}
        self.sigma = sigma

    def __call__(self, f: FreePoly) -> FreePoly:
        out = FreePoly.zero(f.m)
        for w, c in f.terms.items():
            for i, letter in enumerate(w):
                part = (self.sigma(FreePoly.word(w[:i], f.m))
                        * self.images[letter]
                        * FreePoly.word(w[i + 1:], f.m))
                out = out + part.scale(c)
        return out


class LeftMul(Operator):
    def __init__(self, y: FreePoly):
        self.y = y

    def __call__(self, f):
        return self.y * f


class OpSum(Operator):
    def __init__(self, a: Operator, b: Operator):
        self.a, self.b = a, b

    def __call__(self, f):
        return self.a(f) + self.b(f)


class OpCompose(Operator):
    def __init__(self, a: Operator, b: Operator):
        self.a, self.b = a, b

    def __call__(self, f):
        return self.a(self.b(f))


def check_sigma_derivation(delta: Operator, sigma: Operator, m: int = 2,
                           trials: int = 20, max_len: int = 3, seed: int = 7):
    """Property-test delta(uv) = delta(u)v + sigma(u)delta(v) on random words."""
    rng = random.Random(seed)
    for _ in range(trials):
        u = FreePoly.word(tuple(rng.randint(1, m) for _ in range(rng.randint(0, max_len))), m)
        v = FreePoly.word(tuple(rng.randint(1, m) for _ in range(rng.randint(0, max_len))), m)
        if delta(u * v) != delta(u) * v + sigma(u) * delta(v):
            raise NotASigmaDerivation(
                f"Leibniz law failed on {u!r}, {v!r}")


def _sh_hat_rows(widths, step: Operator, sigma: Operator, seed: FreePoly):
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


def sh_hat_apply(k: int, j: int, x: FreePoly, y: FreePoly, sigma: Operator,
                 seed: FreePoly = None) -> FreePoly:
    """Value of the operator shuffle polynomial SH-hat_{k,j} on a seed element.

    The step operator is ad_sigma x + y; defaults to seed = 1.
    """
    if k < 0 or j < 0:
        raise ValueError("negative index")
    if seed is None:
        seed = FreePoly.unit(x.m)
    for row in _sh_hat_rows([j + 1] * (k + 1), AdSigma(x, sigma) + LeftMul(y), sigma, seed):
        pass
    return row[j]


def theorem_b_verify(n: int, sigma: Operator) -> bool:
    """Check (x+y)^n = sum_k SH-hat_{k,n-k}(1) x^{n-k} for letters x=1, y=2."""
    x = FreePoly.letter(1, 2)
    y = FreePoly.letter(2, 2)
    total = FreePoly.zero(2)
    for k in range(n + 1):
        total = total + sh_hat_apply(k, n - k, x, y, sigma) * x ** (n - k)
    return total == (x + y) ** n


class DShift(Operator):
    """D_m = ad_sigma(sigma^m(x)) + sigma^m(y), the m-shifted step operator."""

    def __init__(self, m_shift: int, x: FreePoly, y: FreePoly, sigma: Operator):
        xm, ym = x, y
        for _ in range(m_shift):
            xm, ym = sigma(xm), sigma(ym)
        self.inner = AdSigma(xm, sigma) + LeftMul(ym)

    def __call__(self, f):
        return self.inner(f)


def d_m_factorization_check(n: int, k: int, sigma: Operator,
                            basket=None) -> bool:
    """SH-hat_{k,n-k} = sum over 0<=m_1<=...<=m_k<=n-k of D_{m_1}...D_{m_k} sigma^{n-k}.

    Verified by applying both sides to a basket of test elements.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    x = FreePoly.letter(1, 2)
    y = FreePoly.letter(2, 2)
    if basket is None:
        basket = [FreePoly.unit(2), x, y, x * y + y * x]
    ds = {m: DShift(m, x, y, sigma) for m in range(n - k + 1)}
    for f in basket:
        lhs = sh_hat_apply(k, n - k, x, y, sigma, f)
        g0 = sigma.power(n - k)(f) if n > k else f
        rhs = FreePoly.zero(2)
        for ms in itertools.combinations_with_replacement(range(n - k + 1), k):
            g = g0
            for m in reversed(ms):
                g = ds[m](g)
            rhs = rhs + g
        if lhs != rhs:
            return False
    return True


def _xq():
    return FreePoly.letter(1, 2)


def _yq():
    return FreePoly.letter(2, 2)


@lru_cache(maxsize=None)
def qbell(n: int) -> FreePoly:
    """(ad_q x + y)^n applied to 1, over Q[q]."""
    if n == 0:
        return FreePoly.unit(2)
    sigma = GradingSigma(2)
    d0 = AdSigma(_xq(), sigma) + LeftMul(_yq())
    return d0(qbell(n - 1))


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
    sigma = GradingSigma(2)
    adq = AdSigma(_xq(), sigma)
    return _yq() * qbell_partial(n - 1, k - 1) + adq(qbell_partial(n - 1, k))


@lru_cache(maxsize=None)
def y_derivative_q(k: int) -> FreePoly:
    """y^(k): iterated ad_q x of y, with y^(0) = y."""
    if k == 0:
        return _yq()
    return AdSigma(_xq(), GradingSigma(2))(y_derivative_q(k - 1))


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
    x, y = _xq(), _yq()
    total = FreePoly.zero(2)
    for k in range(n + 1):
        part = qbell(k) * x ** (n - k)
        total = total + part.map_coeffs(lambda c, b=q_binomial(n, k): b * c)
    return total == (x + y) ** n


def qbell_at_one(n: int) -> FreePoly:
    """qbell(n) with q specialized to 1; should equal the plain Bell polynomial."""
    def ev(c):
        if isinstance(c, QPoly):
            v = c(1)
            return int(v) if v.denominator == 1 else v
        return c
    return qbell(n).map_coeffs(ev)


def ore_binomial(n: int, sigma: Operator, delta: Operator, m: int = 2):
    """Coefficient list [SH_{k,n-k}(delta + y, sigma)(1)] of (x+y)^n when
    xy = sigma(y)x + delta(y).

    delta's sigma-Leibniz law is property-tested first.
    """
    if n < 0:
        raise ValueError("negative power")
    check_sigma_derivation(delta, sigma, m)
    step = delta + LeftMul(FreePoly.letter(2, m))
    rows = _sh_hat_rows(range(n + 1, 0, -1), step, sigma, FreePoly.unit(m))
    return [row[n - k] for k, row in enumerate(rows)]


def bell_compare_sigma_id(n: int) -> bool:
    """With sigma = id: SH-hat_{k,n-k}(1) = binom(n,k) * (ad x + y)^k(1)."""
    x = FreePoly.letter(1, 2)
    y = FreePoly.letter(2, 2)
    sigma = IdentityOp()
    for k in range(n + 1):
        if sh_hat_apply(k, n - k, x, y, sigma) != bell_word(k).scale(comb(n, k)):
            return False
    return True
