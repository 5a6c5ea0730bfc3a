import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from ncbinom import verify
from ncbinom.freepoly import (FreePoly, WordStream, commutator, content_stream, sh_multidegree,
                              shuffle_product)
from ncbinom.pbw import reduce_mod_p
from ncbinom.rings import ModInt, QPoly

from test_words import small_contents

words = st.lists(st.integers(1, 2), min_size=0, max_size=6).map(tuple)


def rand_poly(draw_words, coeffs):
    terms = {w: c for w, c in zip(draw_words, coeffs) if c}
    return FreePoly(terms, 2)


polys = st.builds(
    rand_poly,
    st.lists(words, min_size=0, max_size=4, unique=True),
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
)


class TestArithmetic:
    def test_ring_axioms_on_samples(self):
        x = FreePoly.letter(1)
        y = FreePoly.letter(2)
        assert (x + y) * (x - y) == x * x - x * y + y * x - y * y
        assert (x * y) * x == x * (y * x)
        assert x + FreePoly.zero() == x
        assert x * FreePoly.unit() == x

    def test_scalar_action(self):
        x = FreePoly.letter(1)
        assert 2 * x == x + x
        assert Fraction(1, 2) * (x + x) == x
        assert x.scale(0) == FreePoly.zero()

    def test_power(self):
        y = FreePoly.letter(2)
        assert y ** 3 == y * y * y
        assert y ** 0 == FreePoly.unit()

    def test_coeff_lookup(self):
        p = FreePoly.word((1, 2), coeff=3) + FreePoly.word((2,), coeff=-1)
        assert p.coeff((1, 2)) == 3
        assert p.coeff((1, 1)) == 0

    @given(polys, polys, polys)
    def test_distributivity(self, f, g, h):
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h

    @given(polys, polys)
    def test_noncommutative_in_general(self, f, g):
        # sanity: product degree additivity on homogeneous slices
        fg = f * g
        for w, c in fg.terms.items():
            assert c != 0


_POWER_COEFFS = {"int": lambda i: (-1) ** i * (i + 2),
                 "Fraction": lambda i: Fraction(i + 1, 3),
                 "QPoly": lambda i: QPoly((1, i + 1))}


def _n_fold(f, n):
    out = FreePoly.unit(f.m)
    for _ in range(n):
        out = out * f
    return out


class TestPower:
    """``f ** n`` squares; it must equal the n-fold product."""

    # one term; two letters; words of lengths 2, 1 and 0, whose products collide
    @pytest.mark.parametrize("words", [[(1, 2)], [(1,), (2,)], [(1, 2), (2,), ()]])
    @pytest.mark.parametrize("ring", list(_POWER_COEFFS))
    def test_equals_the_n_fold_product(self, ring, words):
        f = FreePoly({w: _POWER_COEFFS[ring](i) for i, w in enumerate(words)}, 2)
        for n in range(13):
            assert f ** n == _n_fold(f, n)

    def test_products_grow_with_log_n(self, monkeypatch):
        calls = []
        mul = FreePoly.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(FreePoly, "__mul__", counted)
        f = FreePoly.word((1, 2), 2, 3)
        for n in range(1, 130):
            calls.clear()
            assert (f ** n).terms == {(1, 2) * n: 3 ** n}
            assert len(calls) <= 2 * math.ceil(math.log2(n)) + 1
        calls.clear()
        assert f ** 0 == FreePoly.unit(2)
        assert calls == []

    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="negative power"):
            FreePoly.letter(1) ** -1


# The general product with its merge of colliding words subtracting: a product
# with a one-term factor, which never merges, is left as it is.
_PLANT_MERGE_SIGN = (
    "from ncbinom.freepoly import FreePoly\n"
    "mul = FreePoly.__mul__\n"
    "def planted(self, other):\n"
    "    if not isinstance(other, FreePoly) or 1 in (len(self.terms), len(other.terms)):\n"
    "        return mul(self, other)\n"
    "    t = {}\n"
    "    for u, a in self.terms.items():\n"
    "        for v, b in other.terms.items():\n"
    "            w = u + v\n"
    "            t[w] = t[w] - a * b if w in t else a * b\n"
    "    return FreePoly(t, self.m)\n")
_MERGE_DETAIL = "product merge failed on (1*E(1) + 1*E(12)) * (1*E(2) + 1*E(22))"


class TestProductMerge:
    """The general product, where word products of different term pairs
    collide, against sums of one-term products, whose keys never collide."""

    @staticmethod
    def _by_terms(f, g):
        out = FreePoly.zero(f.m)
        for u, a in f.terms.items():
            out = out + FreePoly.word(u, f.m, a) * g
        return out

    def test_colliding_words_merge(self):
        # 1*22 = 12*2 = 122, so the product must add both contributions
        f = FreePoly.word((1,)) + FreePoly.word((1, 2))
        g = FreePoly.word((2,)) + FreePoly.word((2, 2))
        fg = f * g
        assert fg.terms == {(1, 2): 1, (1, 2, 2): 2, (1, 2, 2, 2): 1}
        assert fg == self._by_terms(f, g)

    def test_cancelling_words_are_dropped(self):
        f = FreePoly.word((1,)) - FreePoly.word((1, 2))
        g = FreePoly.word((2,)) + FreePoly.word((2, 2))
        assert (f * g).terms == {(1, 2): 1, (1, 2, 2, 2): -1}

    def test_random_non_homogeneous_factors(self):
        rng = random.Random(2026)
        collided = 0
        for _ in range(200):
            m = rng.choice((2, 3))
            f, g = (FreePoly({tuple(rng.randint(1, m) for _ in range(rng.randint(0, 3))):
                              Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rng.randint(2, 5))}, m) for _ in range(2))
            fg = f * g
            assert fg == self._by_terms(f, g)
            assert all(fg.terms.values())
            words = {u + v for u in f.terms for v in g.terms}
            collided += len(words) < len(f.terms) * len(g.terms)
        assert collided > 25  # the merge runs in a good share of the draws

    def test_verify_pbw_sees_a_broken_merge(self, monkeypatch):
        scope = {}
        exec(_PLANT_MERGE_SIGN, scope)
        monkeypatch.setattr(FreePoly, "__mul__", scope["planted"])
        assert verify.run_suite("pbw", 4) == (False, _MERGE_DETAIL)

    def test_verify_pbw_sees_a_broken_merge_under_O(self, verify_under_O):
        done = verify_under_O("pbw", _PLANT_MERGE_SIGN + "FreePoly.__mul__ = planted\n")
        assert done.returncode == 1, done.stderr.decode()
        assert f"pbw: FAIL ({_MERGE_DETAIL})".encode() in done.stdout


class TestCommutator:
    def test_basic(self):
        x = FreePoly.letter(1)
        y = FreePoly.letter(2)
        assert commutator(x, y) == x * y - y * x
        assert commutator(x, x) == FreePoly.zero()

    @given(polys, polys)
    def test_antisymmetry(self, f, g):
        assert commutator(f, g) == -commutator(g, f)

    @given(polys, polys, polys)
    def test_jacobi(self, f, g, h):
        total = (commutator(f, commutator(g, h))
                 + commutator(g, commutator(h, f))
                 + commutator(h, commutator(f, g)))
        assert total == FreePoly.zero()


class TestShuffle:
    def test_small_example(self):
        u = FreePoly.word((1,))
        v = FreePoly.word((2,))
        assert shuffle_product(u, v) == FreePoly.word((1, 2)) + FreePoly.word((2, 1))

    def test_square_shuffle(self):
        u = FreePoly.word((1, 2))
        got = shuffle_product(u, u)
        assert got.coeff((1, 1, 2, 2)) == 4
        assert got.coeff((1, 2, 1, 2)) == 2

    def test_mass(self):
        # total coefficient mass of u sha v is binom(|u|+|v|, |u|)
        u = FreePoly.word((1, 1, 2))
        v = FreePoly.word((2, 1))
        got = shuffle_product(u, v)
        assert sum(got.terms.values()) == comb(5, 3)

    @given(polys, polys)
    def test_commutativity(self, f, g):
        assert shuffle_product(f, g) == shuffle_product(g, f)


class TestShuffleTypePolynomials:
    def test_binary_small_values(self):
        # SH with one letter-2 and one letter-1: the two mixed words
        p = sh_multidegree((1, 1))
        assert p == FreePoly.word((1, 2)) + FreePoly.word((2, 1))
        # pure powers
        assert sh_multidegree((3, 0)) == FreePoly.word((1, 1, 1))
        assert sh_multidegree((0, 2)) == FreePoly.word((2, 2))

    def test_all_coefficients_are_one(self):
        for i in range(5):
            for j in range(5):
                p = sh_multidegree((i, j))
                assert all(c == 1 for c in p.terms.values())
                assert len(p.terms) == comb(i + j, i)

    def test_word_route_matches_recursion(self):
        for i in range(5):
            for j in range(5):
                assert sh_multidegree((j, i)) == shuffle_product(
                    FreePoly.word((2,) * i, 2), FreePoly.word((1,) * j, 2))

    def test_binomial_resolution(self):
        # (x + y)^n splits into the shuffle type slices
        x = FreePoly.letter(1)
        y = FreePoly.letter(2)
        for n in range(9):
            total = FreePoly.zero()
            for k in range(n + 1):
                total = total + sh_multidegree((n - k, k))
            assert total == (x + y) ** n

    def test_commutation_recurrence(self):
        # [x, SH_{i,j-1}] == [SH_{i-1,j}, y]
        x = FreePoly.letter(1)
        y = FreePoly.letter(2)
        for i in range(1, 6):
            for j in range(1, 6):
                lhs = commutator(x, sh_multidegree((j - 1, i)))
                rhs = commutator(sh_multidegree((j, i - 1)), y)
                assert lhs == rhs

    def test_splitting_identity(self):
        # SH_{i,j} = sum_t SH_{k-t, t} * SH_{i-k+t, j-t}
        for i in range(4):
            for j in range(4):
                for k in range(i + j + 1):
                    total = FreePoly.zero()
                    for t in range(min(k, j) + 1):
                        if k - t > i:
                            continue
                        total = total + (sh_multidegree((t, k - t))
                                         * sh_multidegree((j - t, i - k + t)))
                    assert total == sh_multidegree((j, i))

    @pytest.mark.parametrize("counts", small_contents())
    def test_walk_equals_leading_letter_recursion(self, counts):
        # the oracle: every word is a leading letter x followed by a word of
        # the content with one x fewer
        def by_leading_letter(counts, m):
            if not any(counts):
                return FreePoly.unit(m)
            total = FreePoly.zero(m)
            for x in range(1, m + 1):
                if counts[x - 1]:
                    rest = counts[:x - 1] + (counts[x - 1] - 1,) + counts[x:]
                    total = total + FreePoly.letter(x, m) * by_leading_letter(rest, m)
            return total
        got = sh_multidegree(counts)
        want = by_leading_letter(counts, len(counts))
        assert got == want and list(got.terms) == list(want.terms)

    def test_ternary_multidegree(self):
        p = sh_multidegree((1, 1, 1))
        assert len(p.terms) == 6
        assert all(sorted(w) == [1, 2, 3] for w in p.terms)


class TestWordStream:
    @pytest.mark.parametrize("counts", [(0, 0), (16, 0), (8, 8), (10, 6), (4, 4, 4),
                                        (2, 3, 4), (1,) * 7, (0, 3, 0, 2)])
    def test_content_term_count_is_the_multinomial(self, counts):
        # counted off the walk, no dict built
        want = math.factorial(sum(counts))
        for c in counts:
            want //= math.factorial(c)
        assert sum(1 for _ in content_stream(counts).walk()) == want

    def test_reads_into_the_same_poly_and_prints_the_same(self):
        for counts in ((2, 2), (3, 1, 2)):
            stream, poly = content_stream(counts), sh_multidegree(counts)
            assert stream.poly() == poly
            assert list(stream.walk()) == list(poly.walk())
            assert str(stream) == str(poly) and stream.m == poly.m == len(counts)

    def test_map_coeffs_maps_the_few_coefficients_and_drops_zeros(self):
        words = [((1,), 0), ((1, 2), 1), ((2,), 2)]
        stream = WordStream(2, (1, 5, Fraction(1, 2)), lambda: iter(words))
        reduced = reduce_mod_p(stream, 5)
        assert isinstance(reduced, WordStream)
        assert reduced.coeffs == (ModInt(1, 5), ModInt(0, 5), ModInt(3, 5))
        assert reduced.poly() == FreePoly({(1,): ModInt(1, 5), (2,): ModInt(3, 5)}, 2)
        assert [c for _, c in reduced.walk()] == [ModInt(1, 5), ModInt(3, 5)]
        assert reduced.ring == "GF:5"
        assert reduce_mod_p(WordStream(2, (5,), lambda: iter(words[:1])), 5).ring == "Q"

    def test_ring_is_read_off_the_declared_coefficients(self):
        assert WordStream(2, (1, QPoly.q()), lambda: iter(())).ring == "Q[q]"
        assert WordStream(2, (), lambda: iter(())).ring == "Q"
        with pytest.raises(TypeError, match="different rings"):
            WordStream(2, (QPoly.q(), ModInt(1, 5)), lambda: iter(())).ring


class TestErrors:
    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            FreePoly.letter(1, m=2) + FreePoly.letter(1, m=3)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            FreePoly.letter(3, m=2)
