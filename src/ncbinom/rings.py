"""Exact coefficient arithmetic: rationals and polynomials in q; GF(p) values.

Rationals are stdlib ``fractions.Fraction``.  A GF(p) result is the exact
rational one reduced by ``to_mod_p``, so ``ModInt`` only holds an element of
GF(p) for output: its value and modulus, equality and printing, and no
arithmetic.  ``QPoly`` is a dense univariate polynomial in the formal
parameter q; it hosts q-integers, q-factorials and Gaussian binomials.
Every q-object of the paper lies in Z[q], so ``QPoly`` keeps integral
coefficients as ``int`` and uses ``Fraction`` only for a coefficient that is
not an integer (parsed Q[q] input, say).  Floats are refused.  Everything is
immutable and exact.

Coefficients are validated at the boundary, not inside the arithmetic.  The
public ``QPoly`` constructor (and so every parser) normalises each input
coefficient through ``_exact_coeff``.  The results of ``QPoly``'s own
arithmetic are built by ``_qpoly``, which trusts them: int and Fraction are
closed under ring operations, so it only trims trailing zeros and turns a
Fraction that became integral back into an int.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class DivisionNotExact(ArithmeticError):
    """Raised when a polynomial division leaves a nonzero remainder."""


# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p >= _MR_BOUND:
        raise ValueError(f"modulus {p} is too large: primality is certified "
                         f"only below {_MR_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def to_mod_p(c, p: int) -> "ModInt":
    """Image of a rational c in GF(p); its denominator must be prime to p."""
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {c} is not invertible mod {p}")
    return ModInt(c.numerator * pow(c.denominator, -1, p), p)


class ModInt:
    """An element of GF(p), for output: equal only to a ModInt of the same
    value and modulus, so equal elements hash alike; it does no arithmetic."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.value = value % p
        self.p = p

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"ModInt({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


def _exact_coeff(c):
    """c as an exact QPoly coefficient: an int, or a Fraction that is not one.

    A Fraction with denominator 1 becomes its numerator, so integral input
    stays in Z[q].  Anything but an int or a Fraction raises TypeError.
    """
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"QPoly coefficient must be int or Fraction, "
                    f"not {type(c).__name__}")


def _qpoly(cs: list) -> "QPoly":
    """The QPoly with the exact coefficients cs (a list it may modify).

    For results of QPoly arithmetic only: no coefficient is type-checked.
    """
    while cs and not cs[-1]:
        cs.pop()
    if Fraction in map(type, cs):
        cs = [c.numerator if type(c) is Fraction and c.denominator == 1 else c
              for c in cs]
    p = object.__new__(QPoly)
    p.coeffs = tuple(cs)
    return p


class QPoly:
    """Polynomial in q with exact coefficients, lowest degree first.

    Integral coefficients are stored as ``int``; a coefficient is a
    ``Fraction`` only when it is not an integer.  ``Fraction(3) == 3`` and
    both hash alike, so equality and hashing do not depend on the type.
    The coefficient tuple never has a trailing zero, so degree is
    ``len(coeffs) - 1`` and the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_exact_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "QPoly":
        return _qpoly([_exact_coeff(c)])

    @staticmethod
    def one() -> "QPoly":
        return _qpoly([1])

    @staticmethod
    def q(power: int = 1) -> "QPoly":
        return _qpoly([0] * power + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return _qpoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _qpoly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _qpoly([c * other for c in self.coeffs])
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return _qpoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, value):
        """Evaluate at an exact q (Horner): an ``int`` for integral input."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"q must be int or Fraction, not {type(value).__name__}")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shift(self, k: int) -> "QPoly":
        """q^k * self, by shifting the coefficients up k places (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        return _qpoly([0] * k + list(self.coeffs)) if self.coeffs else self

    def __repr__(self):
        return f"QPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "q" if i == 1 else f"q^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)


def q_integer(n: int) -> QPoly:
    """(n)_q = 1 + q + ... + q^(n-1); (0)_q = 0."""
    if n < 0:
        raise ValueError("q-integer of negative n")
    return _qpoly([1] * n)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> QPoly:
    if n < 0:
        raise ValueError("q-factorial of negative n")
    if n == 0:
        return QPoly.one()
    return q_factorial(n - 1) * q_integer(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial via the Pascal recursion; never divides.

    Total: k > n or k < 0 gives the zero polynomial.
    """
    if k < 0 or k > n:
        return QPoly()
    if k == 0 or k == n:
        return QPoly.one()
    return q_binomial(n - 1, k - 1) + QPoly.q(k) * q_binomial(n - 1, k)


def qpoly_exact_div(a: QPoly, b: QPoly) -> QPoly:
    """Return c with a = b*c exactly, or raise DivisionNotExact.

    Each quotient coefficient is an integer division when the leading
    coefficient of b divides exactly, and a Fraction otherwise.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return QPoly()
    rem = list(a.coeffs)
    db = b.degree
    lead = b.coeffs[-1]
    if len(rem) - 1 < db:
        raise DivisionNotExact(f"deg {len(rem)-1} < deg {db}")
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            c = Fraction(rem[i]) / lead
        quot[i - db] = c
        if c != 0:
            for j, bc in enumerate(b.coeffs):
                rem[i - db + j] -= c * bc
    if any(c != 0 for c in rem):
        raise DivisionNotExact(f"nonzero remainder dividing {a} by {b}")
    return _qpoly(quot)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> QPoly:
    """n-th cyclotomic polynomial, by exact division of q^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = QPoly((-1,) + (0,) * (n - 1) + (1,))  # q^n - 1
    den = QPoly.one()
    for d in range(1, n):
        if n % d == 0:
            den = den * cyclotomic(d)
    return qpoly_exact_div(num, den)


def exponent_vectors(n: int, weights, k: int = None):
    """Tuples t, in lex order, with sum w_i * t_i = n over the given weights.

    With k given, only those with sum t_i = k.  Weights all 1 give the
    compositions of n; weights 1..n give the partitions of n by multiplicity.
    """
    if not weights:
        if n == 0 and not k:
            yield ()
        return
    w, rest = weights[0], weights[1:]
    top = n // w if k is None else min(k, n // w)
    for t in range(top + 1):
        for tail in exponent_vectors(n - w * t, rest, None if k is None else k - t):
            yield (t,) + tail
