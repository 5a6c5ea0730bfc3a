"""The free associative algebra on letters 1..m, in the sparse word basis.

Coefficients are duck-typed: int, Fraction and QPoly all work, as long as
both operands of a mixed operation know how to combine.  A GF(p) result is
reduced from the exact one, so its ``ModInt`` coefficients are stored and
printed but do no arithmetic.  Zero terms are never stored.

The invariant is kept at the boundary and trusted inside.  The public
constructor drops every zero coefficient it is given; the results of the
arithmetic here are built by ``_make``, which takes the dict as it is.  A sum
or difference deletes a key whose coefficient cancels, and a product with a
one-term factor is built term by term: its keys cannot collide, and over
Z, Q and Q[q] a product of nonzero coefficients is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from .rings import QPoly, ring_of
from .words import Word, content_words, format_word

_SCALARS = (int, Fraction, QPoly)


class TermStream:
    """What every printout reads: ``walk()``, the terms in key order as
    (factors, coefficient) with each factor a (word, exponent) pair; the
    alphabet size ``m``; the JSON ``basis`` tag; and the ``ring`` tag.

    ``SparseCombination`` stores its terms and reads its ring off them.
    ``WordStream`` and ``pbw.PBWStream`` produce their terms from a closed
    formula, store none and declare their ring.
    """

    __slots__ = ()

    def text_terms(self):
        """Text of each term in key order, ``c*E(w)^t`` with a multi-term
        coefficient in parentheses; the text form joins them with `` + ``."""
        for factors, c in self.walk():
            s = str(c)
            if " " in s:
                s = f"({s})"
            body = "*".join(f"E({format_word(a, self.m)})" + (f"^{t}" if t > 1 else "")
                            for a, t in factors)
            yield f"{s}*{body or 1}"

    def __str__(self):
        """Text form, read back by the CLI's expression parser; ``0`` when
        there are no terms."""
        return " + ".join(self.text_terms()) or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class SparseCombination(TermStream):
    """Finitely supported map key -> coefficient over a fixed alphabet size.

    The shared linear structure of the word basis (``FreePoly``) and the PBW
    basis (``PBWPoly``).  Equality is by class, since both key the unit by ().
    Each subclass names its JSON ``basis`` tag and, in ``factors``, splits a
    key into (word, exponent) factors.
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
    def _make(cls, terms: dict, m: int):
        """The combination with these terms, taken as they are: for results
        of arithmetic whose coefficients are already nonzero."""
        p = object.__new__(cls)
        p.terms = terms
        p.m = m
        return p

    @classmethod
    def zero(cls, m: int = 2):
        return cls._make({}, m)

    def _check(self, other):
        if self.m != other.m:
            raise ValueError("alphabet mismatch")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            if w not in t:
                t[w] = c
            elif s := t[w] + c:
                t[w] = s
            else:
                del t[w]
        return self._make(t, self.m)

    def __sub__(self, other):
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            if w not in t:
                t[w] = -c
            elif s := t[w] - c:
                t[w] = s
            else:
                del t[w]
        return self._make(t, self.m)

    def __neg__(self):
        return self._make({w: -c for w, c in self.terms.items()}, self.m)

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

    def walk(self):
        """(factors, coefficient) of each term, in key order."""
        terms = self.terms
        for key in sorted(terms):
            yield self.factors(key), terms[key]

    @property
    def ring(self) -> str:
        """The ring tag, read from every coefficient; raises TypeError on
        mixed rings."""
        return ring_of(self.terms.values())


class FreePoly(SparseCombination):
    """Sparse combination of words: the free algebra with its product."""

    __slots__ = ()
    basis = "word"

    @staticmethod
    def factors(w: Word):
        """A word is a single factor with exponent 1."""
        return ((w, 1),)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(m: int = 2, one=1) -> "FreePoly":
        return FreePoly({(): one}, m)

    @staticmethod
    def letter(x: int, m: int = 2) -> "FreePoly":
        if not 1 <= x <= m:
            raise ValueError(f"letter {x} outside alphabet of size {m}")
        return FreePoly({(x,): 1}, m)

    @staticmethod
    def word(w: Word, m: int = 2, coeff=1) -> "FreePoly":
        for x in w:
            if not 1 <= x <= m:
                raise ValueError(f"letter {x} outside alphabet of size {m}")
        return FreePoly({w: coeff}, m)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        # the cheap class test first: Fraction in _SCALARS is checked through its ABC
        if not isinstance(other, FreePoly):
            return self.scale(other) if isinstance(other, _SCALARS) else NotImplemented
        self._check(other)
        if len(self.terms) == 1 or len(other.terms) == 1:
            # one factor is a single term: the keys u + v are distinct
            return FreePoly._make({u + v: a * b for u, a in self.terms.items()
                                   for v, b in other.terms.items()}, self.m)
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
        """self^n by squaring: about 2·log2(n) products where the n-fold
        product takes n, and the same result, since the product is exact and
        associative.  Only the order of the terms' keys may differ."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return FreePoly.unit(self.m)
        result, square = None, self
        while True:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if not n:
                break
            square = square * square
        return result


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


class WordStream(TermStream):
    """A word-basis polynomial read off a closed formula, one term at a time.

    ``index()`` yields (word, i) in key order, and the word's coefficient is
    ``coeffs[i]``: a few coefficient objects that all the words share.  So
    no term is stored, the ring is declared by ``coeffs`` alone (the route
    lists only the coefficients it can yield), and ``map_coeffs`` maps those
    few.  A word whose coefficient is zero is skipped.  ``poly`` reads the
    stream into a ``FreePoly``, for the routes that do arithmetic on it.
    """

    __slots__ = ("m", "coeffs", "index")
    basis = "word"

    def __init__(self, m: int, coeffs, index):
        self.m = m
        self.coeffs = tuple(coeffs)
        self.index = index

    @property
    def ring(self) -> str:
        return ring_of(c for c in self.coeffs if c)

    def walk(self):
        cs = self.coeffs
        for w, i in self.index():
            if c := cs[i]:
                yield ((w, 1),), c

    def map_coeffs(self, fn):
        return WordStream(self.m, map(fn, self.coeffs), self.index)

    def poly(self) -> FreePoly:
        return FreePoly._make({w: c for ((w, _),), c in self.walk()}, self.m)


def content_stream(counts) -> WordStream:
    """Every word with ``counts[x-1]`` letters x, coefficient 1, in key
    order: the ``content_words`` walk over m = len(counts) letters."""
    return WordStream(len(counts), (1,), lambda: zip(content_words(counts), repeat(0)))


def sh_multidegree(counts) -> FreePoly:
    """Sum of all words with the given per-letter counts, coefficient 1:
    ``content_stream(counts)`` read into a FreePoly."""
    return content_stream(counts).poly()
