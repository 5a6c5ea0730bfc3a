import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from ncbinom.emit import emit_json, parse_json
from ncbinom.freepoly import FreePoly
from ncbinom.rings import (_MR_BOUND, DivisionNotExact, ModInt, QPoly, _is_prime,
                           cyclotomic, exponent_vectors, q_binomial, q_factorial,
                           q_integer, qpoly_exact_div)


class TestModInt:
    def test_arithmetic(self):
        a = ModInt(3, 5)
        b = ModInt(4, 5)
        assert a + b == 2
        assert a * b == 2
        assert a - b == 4
        assert (-a) == 2
        assert a.inverse() * a == 1

    def test_fraction_coercion(self):
        # 1/2 mod 5 is 3
        assert ModInt(0, 5) + Fraction(1, 2) == 3

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            ModInt(1, 6)

    def test_modulus_mixing_rejected(self):
        with pytest.raises(ValueError):
            ModInt(1, 5) + ModInt(1, 7)

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
        assert q ** 3 == QPoly.q(3)
        assert (q + 1) - q == QPoly.one()

    def test_evaluate(self):
        p = QPoly((1, 2, 1))  # (1+q)^2
        assert p(1) == 4
        assert p(Fraction(1, 2)) == Fraction(9, 4)

    def test_subs_q_power(self):
        assert q_integer(3).subs_q_power(2) == QPoly((1, 0, 1, 0, 1))

    def test_zero_normalization(self):
        assert not QPoly((0, 0))
        assert QPoly((1, 0)).coeffs == (1,)


class TestQCombinatorics:
    def test_q_integer(self):
        assert q_integer(0) == QPoly.zero()
        assert q_integer(3) == QPoly((1, 1, 1))

    def test_q_binomial_division_definition(self):
        # binom(n,k)_q = (n)_q! / ((k)_q! (n-k)_q!)
        for n in range(9):
            for k in range(n + 1):
                lhs = q_binomial(n, k) * q_factorial(k) * q_factorial(n - k)
                assert lhs == q_factorial(n)

    def test_q_binomial_out_of_range(self):
        assert q_binomial(3, 5) == QPoly.zero()
        assert q_binomial(3, -1) == QPoly.zero()

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
            qpoly_exact_div(QPoly.one(), QPoly.zero())


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
        for p in (a + b, a - b, a * b, b ** 5, 2 * a, a + 1, 1 - a, -a,
                  a.subs_q_power(3), q_binomial(9, 4), q_factorial(7), cyclotomic(12),
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
