from math import comb

import pytest

from ncbinom.freepoly import FreePoly, sh_multidegree
from ncbinom.identities import (a_word, faa_composition_sum,
                                faa_di_bruno_check, q_binomial_theorem_check,
                                qbinom_cyclotomic_vanish,
                                quantum_plane_normal_order)
from ncbinom.rings import QPoly, q_binomial


class TestCompositionSum:
    def test_building_blocks(self):
        assert a_word(0) == (1,)
        assert a_word(2) == (1, 2, 2)

    def test_small_example(self):
        # m=1, n=1: compositions (1,0) and (0,1) give a_1 a_0 + a_0 a_1
        got = faa_composition_sum(1, 1)
        want = FreePoly.word((1, 2, 1)) + FreePoly.word((1, 1, 2))
        assert got == want

    def test_term_count(self):
        for m in range(5):
            for n in range(4):
                got = faa_composition_sum(m, n)
                assert sum(got.terms.values()) == comb(m + n, n)

    def test_identity_holds(self):
        for m in range(5):
            for n in range(5):
                if m + n <= 8:
                    assert faa_di_bruno_check(m, n)


class TestQuantumPlane:
    def test_normal_order_single_word(self):
        # g h -> q h g : one inversion
        got = quantum_plane_normal_order(FreePoly.word((1, 2)))
        assert got == {(1, 1): QPoly.q(1)}
        got = quantum_plane_normal_order(FreePoly.word((2, 1)))
        assert got == {(1, 1): QPoly.one()}

    def test_sh_gives_gaussian_binomials(self):
        # SH_{i,n-i}(h,g) normal-orders to binom(n,i)_q h^i g^{n-i}: the
        # binomial theorem below, split by component
        for n in range(1, 9):
            for i in range(n + 1):
                got = quantum_plane_normal_order(sh_multidegree((n - i, i), 2))
                assert got == {(i, n - i): q_binomial(n, i)}

    def test_binomial_theorem(self):
        for n in range(8):
            assert q_binomial_theorem_check(n)

    def test_pure_powers(self):
        got = quantum_plane_normal_order(FreePoly.word((2, 2, 2)))
        assert got == {(3, 0): QPoly.one()}


class TestCyclotomic:
    def test_vanishing_at_roots_of_unity(self):
        for n in range(2, 13):
            assert qbinom_cyclotomic_vanish(n)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            qbinom_cyclotomic_vanish(1)

    def test_edge_binomials_not_divisible(self):
        # binom(n,0)_q = 1 is of course not divisible; the interior ones are
        from ncbinom.rings import cyclotomic, qpoly_exact_div, DivisionNotExact
        with pytest.raises(DivisionNotExact):
            qpoly_exact_div(q_binomial(5, 0), cyclotomic(5))
