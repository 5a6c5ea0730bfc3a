from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

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
