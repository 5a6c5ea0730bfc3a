"""The free associative algebra on letters 1..m, in the sparse word basis.

Coefficients are duck-typed: int, Fraction, QPoly and ModInt all work, as
long as both operands of a mixed operation know how to combine.  Zero terms
are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .rings import ModInt, QPoly
from .words import Word

_SCALARS = (int, Fraction, QPoly, ModInt)


class SparseCombination:
    """Finitely supported map key -> coefficient over a fixed alphabet size.

    The shared linear structure of the word basis (``FreePoly``) and the PBW
    basis (``PBWPoly``).  Equality is by class, since both key the unit by ().
    """

    __slots__ = ("terms", "m")

    def __init__(self, terms=None, m: int = 2):
        self.m = m
        t = {}
        if terms:
            for w, c in terms.items():
                if c:
                    t[w] = c
        self.terms = t

    @classmethod
    def zero(cls, m: int = 2):
        return cls({}, m)

    def _check(self, other):
        if self.m != other.m:
            raise ValueError("alphabet mismatch")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t[w] + c if w in t else c
        return type(self)(t, self.m)

    def __sub__(self, other):
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t[w] - c if w in t else -c
        return type(self)(t, self.m)

    def __neg__(self):
        return type(self)({w: -c for w, c in self.terms.items()}, self.m)

    def scale(self, c):
        return type(self)({w: c * x for w, x in self.terms.items()}, self.m)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.m != other.m:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[w] == other.terms[w] for w in self.terms)

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, key):
        return self.terms.get(key, 0)

    def map_coeffs(self, fn):
        return type(self)({w: fn(c) for w, c in self.terms.items()}, self.m)


class FreePoly(SparseCombination):
    """Sparse combination of words: the free algebra with its product."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(m: int = 2, one=1) -> "FreePoly":
        return FreePoly({(): one}, m)

    @staticmethod
    def letter(x: int, m: int = 2, one=1) -> "FreePoly":
        if not 1 <= x <= m:
            raise ValueError(f"letter {x} outside alphabet of size {m}")
        return FreePoly({(x,): one}, m)

    @staticmethod
    def word(w: Word, m: int = 2, coeff=1) -> "FreePoly":
        for x in w:
            if not 1 <= x <= m:
                raise ValueError(f"letter {x} outside alphabet of size {m}")
        return FreePoly({w: coeff}, m)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        self._check(other)
        t = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u + v
                c = a * b
                t[w] = t[w] + c if w in t else c
        return FreePoly(t, self.m)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "FreePoly":
        if n < 0:
            raise ValueError("negative power")
        result = FreePoly.unit(self.m)
        for _ in range(n):
            result = result * self
        return result

    def __repr__(self):
        if not self.terms:
            return "FreePoly(0)"
        parts = [f"{c}*{''.join(map(str, w)) or 'e'}" for w, c in sorted(self.terms.items())]
        return "FreePoly(" + " + ".join(parts) + ")"


def commutator(f: FreePoly, g: FreePoly) -> FreePoly:
    return f * g - g * f


@lru_cache(maxsize=None)
def _shuffle_words(u: Word, v: Word):
    """Shuffle of two words as a dict word -> multiplicity."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, c in _shuffle_words(u[:-1], v).items():
        key = w + (u[-1],)
        out[key] = out.get(key, 0) + c
    for w, c in _shuffle_words(u, v[:-1]).items():
        key = w + (v[-1],)
        out[key] = out.get(key, 0) + c
    return out


def shuffle_product(f: FreePoly, g: FreePoly) -> FreePoly:
    """Bilinear extension of the recursive word shuffle."""
    f._check(g)
    t = {}
    for u, a in f.terms.items():
        for v, b in g.terms.items():
            ab = a * b
            for w, mult in _shuffle_words(u, v).items():
                c = mult * ab
                t[w] = t[w] + c if w in t else c
    return FreePoly(t, f.m)


@lru_cache(maxsize=None)
def sh_multidegree(counts, m: int = None) -> FreePoly:
    """Sum of all words with the given per-letter counts, coefficient 1.

    ``counts[x-1]`` is the multiplicity of letter x.  Built by the recursion
    peeling one leading letter at a time.
    """
    if m is None:
        m = len(counts)
    if all(c == 0 for c in counts):
        return FreePoly.unit(m)
    total = FreePoly.zero(m)
    for x in range(1, m + 1):
        if counts[x - 1] > 0:
            rest = counts[:x - 1] + (counts[x - 1] - 1,) + counts[x:]
            total = total + FreePoly.letter(x, m) * sh_multidegree(rest, m)
    return total


def sh_word_basis(i: int, j: int) -> FreePoly:
    """Shuffle type polynomial of bidegree (i, j) over {1, 2}: i letters 2, j letters 1.

    Computed by the leading-letter recursion; it equals the shuffle product
    2^i sh 1^j, which the tests check.
    """
    if i < 0 or j < 0:
        raise ValueError("negative bidegree")
    return sh_multidegree((j, i), 2)
