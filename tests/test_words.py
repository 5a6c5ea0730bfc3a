from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from ncbinom.words import (EmptyWord, NoFactorization, cfl_factorize,
                           content_words, format_word, is_lyndon, lyndon_enumerate,
                           multidegree, parse_word, standard_factorization)

words = st.lists(st.integers(1, 2), min_size=1, max_size=10).map(tuple)


def small_contents():
    """Every content over 1 to 3 letters with at most 7 letters in all."""
    return [counts for m in range(1, 4) for counts in product(range(8), repeat=m)
            if sum(counts) <= 7]


class TestLyndonPredicate:
    def test_small_cases(self):
        assert is_lyndon((1,))
        assert is_lyndon((1, 2))
        assert is_lyndon((1, 1, 2))
        assert not is_lyndon((2, 1))
        assert not is_lyndon((1, 2, 1, 2))  # periodic
        assert not is_lyndon(())

    def test_chain_of_length_up_to_three(self):
        # increasing chain over {1,2} up to length 3
        expect = [(1,), (1, 1, 2), (1, 2), (1, 2, 2), (2,)]
        assert lyndon_enumerate(2, 3) == expect

    @given(words)
    def test_lyndon_iff_smallest_rotation_and_aperiodic(self, w):
        rotations = {w[i:] + w[:i] for i in range(len(w))}
        smallest = min(rotations)
        aperiodic = len(rotations) == len(w)
        assert is_lyndon(w) == (w == smallest and aperiodic)


class TestCFL:
    def test_examples(self):
        assert cfl_factorize((2, 1, 1, 2)) == [(2,), (1, 1, 2)]
        assert cfl_factorize((1, 2, 1, 2)) == [(1, 2), (1, 2)]
        assert cfl_factorize((2, 2, 1)) == [(2,), (2,), (1,)]

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWord):
            cfl_factorize(())

    @given(words)
    def test_factorization_properties(self, w):
        factors = cfl_factorize(w)
        assert sum(factors, ()) == w
        assert all(is_lyndon(f) for f in factors)
        assert all(a >= b for a, b in zip(factors, factors[1:]))


class TestStandardFactorization:
    def test_examples(self):
        assert standard_factorization((1, 2)) == ((1,), (2,))
        assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
        assert standard_factorization((1, 1, 2, 2)) == ((1,), (1, 2, 2))
        assert standard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))

    def test_single_letter_rejected(self):
        with pytest.raises(NoFactorization):
            standard_factorization((1,))

    def test_equivalent_to_longest_lyndon_proper_suffix(self):
        for w in lyndon_enumerate(2, 8):
            if len(w) < 2:
                continue
            beta, gamma = standard_factorization(w)
            assert beta + gamma == w
            assert is_lyndon(beta) and is_lyndon(gamma)
            longest = max((i for i in range(1, len(w)) if is_lyndon(w[i:])),
                          key=lambda i: len(w) - i)
            assert gamma == w[longest:]


class TestEnumeration:
    def test_counts_match_necklace_formula(self):
        # number of binary Lyndon words of length n: 2,1,2,3,6,9,18,30
        lyndons = lyndon_enumerate(2, 8)
        counts = [sum(1 for w in lyndons if len(w) == n) for n in range(1, 9)]
        assert counts == [2, 1, 2, 3, 6, 9, 18, 30]

    def test_one_letter_alphabet_has_one_lyndon_word(self):
        for n in range(1, 6):
            assert lyndon_enumerate(1, n) == [(1,)]

    @pytest.mark.parametrize("m, n", [(0, 3), (2, 0)])
    def test_empty_alphabet_or_length_is_refused(self, m, n):
        with pytest.raises(ValueError):
            lyndon_enumerate(m, n)

    def test_sorted_lexicographically(self):
        out = lyndon_enumerate(3, 4)
        assert out == sorted(out)
        assert all(is_lyndon(w) for w in out)


class TestContentWords:
    @pytest.mark.parametrize("counts", small_contents())
    def test_every_word_of_the_content_once_in_lex_order(self, counts):
        got = list(content_words(counts))
        multinomial = factorial(sum(counts)) // prod(map(factorial, counts))
        assert len(got) == multinomial
        assert all(u < v for u, v in zip(got, got[1:]))  # increasing, so distinct
        assert all(multidegree(w, len(counts)) == counts for w in got)

    def test_empty_content_is_the_empty_word(self):
        assert list(content_words((0, 0))) == [()]
        assert list(content_words(())) == [()]

    @pytest.mark.parametrize("counts", [(-1,), (3, -1), (0, 2, -2)])
    def test_negative_count_is_refused(self, counts):
        with pytest.raises(ValueError):
            next(content_words(counts))


class TestMisc:
    def test_multidegree(self):
        assert multidegree((1, 2, 2, 1), 2) == (2, 2)
        assert multidegree((3,), 3) == (0, 0, 1)

    def test_format_switches_to_brackets_above_nine_letters(self):
        assert format_word((1, 9, 2), 9) == "192"
        assert format_word((1, 9, 2), 10) == "[1,9,2]"
        assert format_word((10, 1), 10) == "[10,1]"

    @given(words)
    def test_format_parse_roundtrip(self, w):
        assert parse_word(format_word(w, 2), 2) == w

    def test_parse_reads_only_whole_brackets(self):
        assert parse_word("[1,10]", 10) == (1, 10)
        assert parse_word("[7]", 10) == (7,)
        for bad in ("[1,2", "[[2,1]]", "1,2]", "[]", "[1,,2]", "[1, 2]", "[1,2]]"):
            with pytest.raises(ValueError):
                parse_word(bad, 10)

    def test_parse_refuses_letters_outside_the_alphabet(self):
        for bad, m, x in (("07", 9, 0), ("13", 2, 3), ("[1,11]", 10, 11), ("3", 2, 3)):
            with pytest.raises(ValueError, match=f"letter {x} outside alphabet of size {m}"):
                parse_word(bad, m)
