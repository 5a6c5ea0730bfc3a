import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from ncbinom.emit import emit_json, parse_json
from ncbinom.freepoly import FreePoly
from ncbinom.qsigma import grading_sigma
from ncbinom.rings import (_MR_BOUND, DivisionNotExact, ModInt, QPoly, _is_prime,
                           cyclotomic, exponent_vectors, q_binomial, q_factorial,
                           q_integer, qpoly_exact_div)


class TestModInt:
    """GF(p) output is the exact output reduced: a ModInt holds a value for
    printing and comparison and does no arithmetic."""

    def test_equality(self):
        a = ModInt(3, 5)
        assert a == ModInt(8, 5) and a != 4
        assert hash(a) == hash(ModInt(8, 5))
        # equal only to a ModInt, so equality and hashing agree in a set
        assert a != 3 and 3 != a and a != -2
        assert len({a, ModInt(8, 5), 3, ModInt(3, 7)}) == 3
        assert ModInt(3, 7) != a
        assert a != Fraction(3)  # not coerced
        assert not ModInt(5, 5) and ModInt(1, 5)

    def test_arithmetic_is_refused(self):
        a = ModInt(3, 5)
        for op in (lambda: a + a, lambda: a - 1, lambda: 1 - a, lambda: -a,
                   lambda: a * a, lambda: 2 * a, lambda: a * Fraction(1, 2), lambda: a ** 2):
            with pytest.raises(TypeError):
                op()
        assert not hasattr(a, "inverse")
        f = FreePoly({(1,): a, (2,): ModInt(1, 5)}, 2)
        for op in (lambda: f * f, lambda: f * FreePoly.letter(1), lambda: f * a,
                   lambda: a * f, lambda: f.scale(2), lambda: -f, lambda: f - f):
            with pytest.raises(TypeError):
                op()

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            ModInt(1, 6)

    def test_modulus_above_certified_bound_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            ModInt(1, _MR_BOUND)
        with pytest.raises(ValueError, match="too large"):
            ModInt(1, _MR_BOUND + 2)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(20000) if _is_prime(n)] == \
            [n for n in range(20000) if _trial_division(n)]

    def test_strong_pseudoprimes_rejected(self):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
        # bases 2, 3, 5, 7; 3825123056546413051 to every prime base 2..31
        for n in (561, 3215031751, 3825123056546413051):
            assert not _is_prime(n)

    def test_large_primes(self):
        for p in (2 ** 31 - 1, 10 ** 9 + 7, 10 ** 13 + 37, 2 ** 61 - 1):
            assert _is_prime(p)
        assert not _is_prime((2 ** 31 - 1) * (10 ** 9 + 7))


class TestExponentVectors:
    def test_composition_counts(self):
        for m in range(1, 5):
            for n in range(8):
                comps = list(exponent_vectors(n, (1,) * m))
                assert len(comps) == comb(n + m - 1, m - 1)
                assert all(len(t) == m and sum(t) == n for t in comps)

    def test_partition_counts(self):
        counts = [len(list(exponent_vectors(n, range(1, n + 1)))) for n in range(11)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_exactly_k_parts(self):
        # partitions of 7 into exactly 3 parts: 511, 421, 331, 322
        got = list(exponent_vectors(7, range(1, 6), 3))
        assert got == [(0, 2, 1, 0, 0), (1, 0, 2, 0, 0), (1, 1, 0, 1, 0), (2, 0, 0, 0, 1)]
        for n in range(9):
            for k in range(n + 1):
                for t in exponent_vectors(n, range(1, n + 1), k):
                    assert sum(t) == k and sum(i * x for i, x in enumerate(t, 1)) == n
        assert list(exponent_vectors(3, (1, 1), 4)) == []
        assert list(exponent_vectors(0, (), 0)) == [()]

    def test_strict_lex_order(self):
        for weights in ((1, 1, 1), (1, 2, 3, 4, 5, 6), (2, 3)):
            for n in range(10):
                out = list(exponent_vectors(n, weights))
                assert all(a < b for a, b in zip(out, out[1:]))


class TestQPoly:
    def test_basic_arithmetic(self):
        q = QPoly.q()
        assert (1 + q) * (1 - q) == QPoly((1, 0, -1))
        assert q * q * q == QPoly.q(3)
        assert (q + 1) - q == QPoly.one()

    def test_evaluate(self):
        p = QPoly((1, 2, 1))  # (1+q)^2
        assert p(1) == 4 and type(p(1)) is int
        assert type(QPoly((1, 1))(1)) is int
        assert p(Fraction(1, 2)) == Fraction(9, 4)

    def test_evaluate_refuses_float(self):
        for q in (0.5, 1.0, "1"):
            with pytest.raises(TypeError):
                QPoly((1, 1))(q)

    def test_zero_normalization(self):
        assert not QPoly((0, 0))
        assert QPoly((1, 0)).coeffs == (1,)


class TestQCombinatorics:
    def test_q_integer(self):
        assert q_integer(0) == QPoly()
        assert q_integer(3) == QPoly((1, 1, 1))

    def test_q_binomial_division_definition(self):
        # binom(n,k)_q = (n)_q! / ((k)_q! (n-k)_q!)
        for n in range(9):
            for k in range(n + 1):
                lhs = q_binomial(n, k) * q_factorial(k) * q_factorial(n - k)
                assert lhs == q_factorial(n)

    def test_q_binomial_out_of_range(self):
        assert q_binomial(3, 5) == QPoly()
        assert q_binomial(3, -1) == QPoly()

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_q_binomial_symmetry(self, n, k):
        assert q_binomial(n, k) == q_binomial(n, n - k if k <= n else -1)

    def test_q_binomial_at_one_is_binomial(self):
        from math import comb
        for n in range(8):
            for k in range(n + 1):
                assert q_binomial(n, k)(1) == comb(n, k)


class TestExactDivision:
    def test_exact(self):
        a = q_factorial(4)
        b = q_factorial(2)
        assert qpoly_exact_div(a, b) * b == a

    def test_not_exact(self):
        with pytest.raises(DivisionNotExact):
            qpoly_exact_div(QPoly((1, 1, 1)), QPoly((1, 1)))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            qpoly_exact_div(QPoly.one(), QPoly())


class TestCyclotomic:
    def test_known_values(self):
        assert cyclotomic(1) == QPoly((-1, 1))
        assert cyclotomic(2) == QPoly((1, 1))
        assert cyclotomic(3) == QPoly((1, 1, 1))
        assert cyclotomic(4) == QPoly((1, 0, 1))
        assert cyclotomic(6) == QPoly((1, -1, 1))

    def test_product_recovers_power(self):
        for n in (6, 10, 12):
            prod = QPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == QPoly((-1,) + (0,) * (n - 1) + (1,))


def _all_int(p):
    return all(type(c) is int for c in p.coeffs)


def _fraction_mul(a, b):
    """The Fraction-coefficient schoolbook product, as QPoly had it before its
    coefficients became integers where they can."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _fraction_div(a, b):
    """The Fraction-coefficient exact division of the same earlier QPoly;
    None when the remainder is nonzero."""
    rem = [Fraction(c) for c in a]
    db, lead = len(b) - 1, Fraction(b[-1])
    if len(rem) - 1 < db:
        return None
    quot = [Fraction(0)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] / lead
        quot[i - db] = c
        for j, bc in enumerate(b):
            rem[i - db + j] -= c * bc
    if any(rem):
        return None
    while quot and quot[-1] == 0:
        quot.pop()
    return tuple(quot)


def _random_coeffs(rng, length):
    pool = (Fraction(1, 6), Fraction(-3, 4), Fraction(7, 9), 10 ** 20, -(10 ** 20) + 7,
            0, 1, -2, 3)
    cs = [rng.choice(pool) * rng.randint(-5, 5) for _ in range(length)]
    cs.append(rng.choice((1, -1, 2, Fraction(1, 6), 10 ** 20)))
    return cs


class TestIntegerCoefficients:
    def test_integral_input_stays_int(self):
        q = QPoly.q()
        a, b = QPoly((3, -1, 2)), QPoly((1, 5))
        for p in (a + b, a - b, a * b, b * b * b * b * b, 2 * a, a + 1, 1 - a, -a,
                  q_binomial(9, 4), q_factorial(7), cyclotomic(12),
                  qpoly_exact_div(q_factorial(8), q_factorial(3)),
                  qpoly_exact_div(a * b * (q + 7), b), QPoly.const(Fraction(6, 3))):
            assert p and _all_int(p), p.coeffs

    def test_products_and_quotients_match_fraction_arithmetic(self):
        rng = random.Random(6)
        for _ in range(300):
            a = _random_coeffs(rng, rng.randint(0, 6))
            b = _random_coeffs(rng, rng.randint(0, 4))
            prod = QPoly(a) * QPoly(b)
            assert prod.coeffs == _fraction_mul(a, b)
            assert qpoly_exact_div(prod, QPoly(b)) == QPoly(a)
            assert qpoly_exact_div(prod, QPoly(b)).coeffs == _fraction_div(
                _fraction_mul(a, b), b)
            c = _random_coeffs(rng, rng.randint(0, 3))
            want = _fraction_div(a, c)
            if want is None:
                with pytest.raises(DivisionNotExact):
                    qpoly_exact_div(QPoly(a), QPoly(c))
            else:
                assert qpoly_exact_div(QPoly(a), QPoly(c)).coeffs == want

    def test_non_monic_exact_division_gives_a_fraction(self):
        got = qpoly_exact_div(QPoly((1, 1)), QPoly((2, 2)))
        assert got == QPoly.const(Fraction(1, 2))
        assert type(got.coeffs[0]) is Fraction
        with pytest.raises(DivisionNotExact):
            qpoly_exact_div(QPoly((1, 0, 1)), QPoly((2, 2)))

    def test_integral_fraction_equals_int(self):
        assert QPoly((Fraction(3),)) == QPoly((3,))
        assert hash(QPoly((Fraction(3),))) == hash(QPoly((3,)))
        assert QPoly((Fraction(4, 2), 1)).coeffs == (2, 1)
        assert type(QPoly((Fraction(4, 2),)).coeffs[0]) is int

    def test_half_coefficient_roundtrips_through_json(self):
        p = FreePoly({(1, 2): QPoly((Fraction(1, 2), 0, -3)), (2,): QPoly.q(2)}, 2)
        doc = json.loads(json.dumps(emit_json(p)))
        assert doc["ring"] == "Q[q]"
        back = parse_json(doc)
        assert back == p
        assert back.terms[(1, 2)].coeffs == (Fraction(1, 2), 0, -3)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            QPoly((0.1, 1))
        with pytest.raises(TypeError):
            QPoly.const(0.5)
        with pytest.raises(TypeError):
            QPoly.one() + 0.5


def _types(p):
    return [type(c) for c in p.coeffs]


class TestScalarPaths:
    """int/Fraction operands scale the coefficients, and q^k * p is a shift;
    both must agree with the general product, types and trimming included."""

    SCALARS = (0, 1, -1, 3, 10 ** 20, True, False,
               Fraction(1, 2), Fraction(-4, 2), Fraction(0), Fraction(6, 3), Fraction(7, 9))

    def _polys(self):
        rng = random.Random(11)
        yield QPoly()
        yield QPoly((Fraction(1, 2), 3))
        for _ in range(40):
            yield QPoly(_random_coeffs(rng, rng.randint(0, 5)))

    def test_scaling_equals_the_general_product(self):
        for p in self._polys():
            for c in self.SCALARS:
                want = p * QPoly.const(c)
                for got in (p * c, c * p):
                    assert got == want and got.coeffs == want.coeffs
                    assert _types(got) == _types(want), (p, c)
                    assert not got.coeffs or got.coeffs[-1] != 0

    def test_integral_scaled_result_stays_int(self):
        p = QPoly((Fraction(1, 2), 3, Fraction(-3, 2)))
        for got in (p * 2, 2 * p, p * Fraction(4, 1), Fraction(-2) * p):
            assert _all_int(got), got.coeffs
        assert _types(p * Fraction(1, 3)) == [Fraction, int, Fraction]

    def test_scalar_product_refuses_floats_and_mod_ints(self):
        for c in (0.5, ModInt(2, 5)):
            with pytest.raises(TypeError):
                QPoly.q() * c
            with pytest.raises(TypeError):
                c * QPoly.q()

    def test_shift_equals_the_product_with_a_q_power(self):
        for p in self._polys():
            for k in range(4):
                got, want = p.shift(k), QPoly.q(k) * p
                assert got == want and got.coeffs == want.coeffs
                assert _types(got) == _types(want)
        assert QPoly().shift(3).coeffs == ()
        with pytest.raises(ValueError):
            QPoly.one().shift(-1)


class TestGradingSigmaShift:
    @staticmethod
    def _old_grading_sigma(f):
        """sigma(w) = q^{|w|} w by the general QPoly product, as it was."""
        return FreePoly({w: QPoly.q(len(w)) * (c if isinstance(c, QPoly) else QPoly.const(c))
                         for w, c in f.terms.items()}, f.m)

    def test_equals_the_product_formula_on_random_polys(self):
        rng = random.Random(5)
        pool = (lambda: rng.randint(-9, 9),
                lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                lambda: QPoly(_random_coeffs(rng, rng.randint(0, 3))))
        for _ in range(200):
            terms = {tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4))):
                     rng.choice(pool)() for _ in range(rng.randint(0, 5))}
            f = FreePoly(terms, 2)
            got, want = grading_sigma(f), self._old_grading_sigma(f)
            assert got == want
            assert {w: _types(c) for w, c in got.terms.items()} == \
                {w: _types(c) for w, c in want.terms.items()}

    def test_refuses_a_mod_int_coefficient(self):
        with pytest.raises(TypeError):
            grading_sigma(FreePoly({(1, 2): ModInt(2, 5)}, 2))
