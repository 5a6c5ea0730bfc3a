"""The results of ring arithmetic are built without re-validation; check them.

``QPoly``'s and ``SparseCombination``'s own operations build their results
with private constructors that trust the coefficients they are given.  Each
operation here is compared with an oracle that computes over plain lists and
dicts and builds its result through the public, validating constructor, and
every result is checked for the stored-form invariants: no zero term, no
trailing zero coefficient, and an ``int`` for every integral coefficient.
"""

import random
from fractions import Fraction

import pytest

from ncbinom.freepoly import FreePoly
from ncbinom.pbw import PBWPoly, enumerate_pbw_monomials
from ncbinom.rings import ModInt, QPoly, qpoly_exact_div

ROUNDS = 300


def assert_stored_form(p: QPoly):
    assert not p.coeffs or p.coeffs[-1] != 0
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def assert_no_zero_term(f):
    for c in f.terms.values():
        assert c, f"stored zero coefficient in {f!r}"
        if isinstance(c, QPoly):
            assert_stored_form(c)


def rand_coeff(rng):
    """A small int, or a Fraction with denominator 2 so that sums collapse."""
    n = rng.randint(-2, 2)
    return Fraction(n, 2) if rng.random() < 0.3 else n


def rand_qpoly(rng):
    return QPoly([rand_coeff(rng) for _ in range(rng.randint(0, 4))])


# -- oracles: list arithmetic, results through the public constructor ---------

def ref_add(a, b, sign=1):
    n = max(len(a.coeffs), len(b.coeffs))
    xs = list(a.coeffs) + [0] * (n - len(a.coeffs))
    ys = list(b.coeffs) + [0] * (n - len(b.coeffs))
    return QPoly([x + sign * y for x, y in zip(xs, ys)])


def ref_mul(a, b):
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return QPoly(out)


def ref_combination(cls, f, g, op, m):
    """f op g for op in '+', '-', '*' (word concatenation), by dict arithmetic."""
    t = {}
    if op == "*":
        pairs = [(u + v, a * b) for u, a in f.terms.items() for v, b in g.terms.items()]
    else:
        pairs = list(f.terms.items())
        pairs += [(v, b if op == "+" else -b) for v, b in g.terms.items()]
    for w, c in pairs:
        t[w] = t[w] + c if w in t else c
    return cls(t, m)


class TestQPoly:
    def test_arithmetic_matches_oracle(self):
        rng = random.Random(8)
        for _ in range(ROUNDS):
            a, b = rand_qpoly(rng), rand_qpoly(rng)
            for got, want in [(a + b, ref_add(a, b)), (a - b, ref_add(a, b, -1)),
                              (a - a, QPoly()), (-a, ref_add(QPoly(), a, -1)),
                              (a * b, ref_mul(a, b)), (a * a, ref_mul(a, a))]:
                assert got.coeffs == want.coeffs
                assert_stored_form(got)
            if b:
                quotient = qpoly_exact_div(a * b, b)
                assert quotient == a
                assert_stored_form(quotient)

    def test_integral_fraction_results_are_int(self):
        half = QPoly((Fraction(1, 2), Fraction(1, 2)))
        assert (half + half).coeffs == (1, 1)
        assert type((half * 2).coeffs[0]) is int
        assert type((half - QPoly((Fraction(-1, 2),))).coeffs[0]) is int
        assert (half - half).coeffs == ()
        assert qpoly_exact_div(QPoly((1, 2, 1)), QPoly((2, 2))).coeffs == (
            Fraction(1, 2), Fraction(1, 2))

    def test_scalars_are_normalised(self):
        assert (QPoly((1, 1)) * True).coeffs == (1, 1)
        assert type((QPoly((1,)) + True).coeffs[0]) is int
        assert type((QPoly((1,)) * Fraction(4, 2)).coeffs[0]) is int
        assert QPoly.const(Fraction(6, 3)).coeffs == (2,)

    @pytest.mark.parametrize("bad", [[0.5], [1, 2.0], [1, "1"], [ModInt(1, 5)]])
    def test_public_constructor_refuses_non_rationals(self, bad):
        with pytest.raises(TypeError):
            QPoly(bad)

    def test_float_operand_refused(self):
        with pytest.raises(TypeError):
            QPoly((1, 1)) * 0.5
        with pytest.raises(TypeError):
            QPoly.const(0.5)


def rand_terms(rng, keys, coeff):
    return {rng.choice(keys): coeff(rng) for _ in range(rng.randint(0, 4))}


WORDS = [(), (1,), (2,), (1, 2), (2, 1), (1, 1, 2)]
COEFFS = {
    "rational": rand_coeff,
    "int and QPoly": lambda rng: rng.choice((rand_coeff(rng), rand_qpoly(rng))),
}


class TestFreePoly:
    @pytest.mark.parametrize("ring", list(COEFFS))
    def test_arithmetic_matches_oracle(self, ring):
        rng = random.Random(ring)
        for _ in range(ROUNDS):
            f = FreePoly(rand_terms(rng, WORDS, COEFFS[ring]), 2)
            g = FreePoly(rand_terms(rng, WORDS, COEFFS[ring]), 2)
            if rng.random() < 0.3:
                g = FreePoly(dict(list(g.terms.items())[:1]), 2)  # a one-term factor
            for op in "+-*":
                got = {"+": f + g, "-": f - g, "*": f * g}[op]
                assert got == ref_combination(FreePoly, f, g, op, 2), (f, op, g)
                assert_no_zero_term(got)
            assert g * f == ref_combination(FreePoly, g, f, "*", 2)
            assert_no_zero_term(g * f)
            for got in (f - f, f + (-f), -f + f):
                assert got == FreePoly.zero(2) and not got.terms

    def test_cancellations(self):
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        assert ((x + y) * (x - y) - x * x + y * y).terms == {
            (1, 2): -1, (2, 1): 1}
        q = QPoly((0, 1))
        f = x.scale(q) + y
        assert (f - x.scale(q)).terms == {(2,): 1}
        assert (f * x - y * x).terms == {(1, 1): q}


class TestPBWPoly:
    @pytest.mark.parametrize("ring", list(COEFFS))
    def test_linear_arithmetic_matches_oracle(self, ring):
        rng = random.Random(ring)
        monos = [mono for d in range(4) for j in range(d + 1)
                 for mono in enumerate_pbw_monomials((j, d - j))]
        for _ in range(ROUNDS):
            f = PBWPoly(rand_terms(rng, monos, COEFFS[ring]), 2)
            g = PBWPoly(rand_terms(rng, monos, COEFFS[ring]), 2)
            for op in "+-":
                got = f + g if op == "+" else f - g
                assert type(got) is PBWPoly
                assert got == ref_combination(PBWPoly, f, g, op, 2)
                assert_no_zero_term(got)
            assert not (f - f).terms and not (-f + f).terms
