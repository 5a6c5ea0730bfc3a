import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncbinom import shuffle, verify
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import (PBWPoly, enumerate_pbw_monomials, monomial_from_word,
                         pbw_expand)
from ncbinom.rings import ModInt
from ncbinom.shuffle import (IntegralityError, binomial_ls, c_e_alpha,
                             coeff_closed_form, sh_closed_form, sh_pbw,
                             sh_pbw_char_p)
from ncbinom.words import lyndon_enumerate


class TestLeadingCoefficients:
    def test_known_values(self):
        assert c_e_alpha((1,)) == 1
        assert c_e_alpha((2,)) == 1
        assert c_e_alpha((1, 2)) == 1
        assert c_e_alpha((1, 1, 2)) == 1
        assert c_e_alpha((1, 2, 2)) == 1
        assert c_e_alpha((1, 1, 2, 1, 2)) == 3
        assert c_e_alpha((1, 2, 1, 2, 2)) == 4

    def test_non_lyndon_rejected(self):
        with pytest.raises(ValueError):
            c_e_alpha((2, 1))

    def test_matches_rewrite_route(self):
        # coefficient of the single-factor monomial E_alpha in the PBW form
        # of the shuffle type polynomial of alpha's multidegree
        for alpha in lyndon_enumerate(2, 7):
            i = sum(1 for x in alpha if x == 2)
            j = len(alpha) - i
            p = sh_pbw((i, j), 2)
            assert p.coeff(((alpha, 1),)) == c_e_alpha(alpha)


class TestClosedForm:
    def test_small_binary_example(self):
        # SH_{1,1} = xy + yx = 2 E_2 E_1 + E_12
        got = sh_closed_form((1, 1), 2)
        want = (PBWPoly.monomial((((2,), 1), ((1,), 1)), coeff=2)
                + PBWPoly.monomial((((1, 2), 1),)))
        assert got == want

    def test_agrees_with_rewrite_binary(self):
        for i in range(7):
            for j in range(7):
                if i + j > 8:
                    continue
                assert sh_closed_form((i, j), 2) == sh_pbw((i, j), 2)

    def test_agrees_with_rewrite_ternary(self):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if a + b + c > 5:
                        continue
                    assert sh_closed_form((a, b, c), 3) == sh_pbw((a, b, c), 3)

    def test_mass_is_binomial(self):
        from math import comb
        for i in range(6):
            for j in range(6):
                p = sh_closed_form((i, j), 2)
                assert pbw_expand(p).terms.keys() == {
                    w for w in pbw_expand(sh_pbw((i, j), 2)).terms}
                total = sum(pbw_expand(p).terms.values())
                assert total == comb(i + j, i)

    def test_word_monomial_has_coeff_from_formula(self):
        mono = monomial_from_word((2, 2, 1, 2, 1))
        assert coeff_closed_form(mono) == sh_pbw((3, 2), 2).coeff(mono)

    def test_every_monomial_matches_rewrite(self):
        for d in range(8):
            for i in range(d + 1):
                rewritten = sh_pbw((i, d - i), 2)
                for mono in enumerate_pbw_monomials(2, (d - i, i)):
                    c = coeff_closed_form(mono)
                    assert type(c) is int
                    assert c == rewritten.coeff(mono)

    def test_non_integral_coefficient_raises(self, monkeypatch):
        # a half-integer E_alpha coefficient makes E_12^1 non-integral
        monkeypatch.setattr(shuffle, "c_e_alpha", lambda alpha: Fraction(1, 2))
        with pytest.raises(IntegralityError):
            coeff_closed_form((((1, 2), 1),))

    def test_non_integral_coefficient_raises_under_O(self):
        script = (
            "from fractions import Fraction\n"
            "from ncbinom import shuffle\n"
            "shuffle.c_e_alpha = lambda alpha: Fraction(1, 2)\n"
            "try:\n"
            "    shuffle.coeff_closed_form((((1, 2), 1),))\n"
            "except shuffle.IntegralityError:\n"
            "    raise SystemExit(3)\n")
        src = str(Path(shuffle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 3, done.stderr.decode()


class TestBinomialLS:
    def test_equals_free_power(self):
        x = FreePoly.letter(1)
        y = FreePoly.letter(2)
        for d in range(7):
            assert pbw_expand(binomial_ls(2, d)) == (x + y) ** d

    def test_ternary(self):
        s = (FreePoly.letter(1, m=3) + FreePoly.letter(2, m=3)
             + FreePoly.letter(3, m=3))
        for d in range(5):
            assert pbw_expand(binomial_ls(3, d)) == s ** d

    def test_bad_args(self):
        with pytest.raises(ValueError):
            binomial_ls(1, 3)
        with pytest.raises(ValueError):
            binomial_ls(2, -1)


_NEGATED_BINOMIAL = (
    "from ncbinom import shuffle\n"
    "right = shuffle.binomial_ls\n"
    "shuffle.binomial_ls = lambda m, d: right(m, d).scale(-1)\n")


class TestVerifyReachesBinomialLS:
    """``verify theorem-a`` compares ``binomial_ls`` with the rewritten power,
    so a sign flip of every coefficient fails it."""

    def test_negated_binomial_fails_theorem_a(self, monkeypatch):
        monkeypatch.setattr(shuffle, "binomial_ls", shuffle.binomial_ls)
        exec(_NEGATED_BINOMIAL, {})
        assert verify.run_suite("theorem-a", 6) == (False, "binomial mismatch at m=2, d=0")

    def test_negated_binomial_fails_theorem_a_under_O(self, verify_under_O):
        done = verify_under_O("theorem-a", _NEGATED_BINOMIAL)
        assert done.returncode == 1, done.stderr.decode()
        assert b"theorem-a: FAIL (binomial mismatch at m=2, d=0)" in done.stdout


class TestCharP:
    def test_survivors_are_length_p_lyndon(self):
        for p in (2, 3, 5, 7):
            for k in range(1, p):
                reduced = sh_pbw_char_p(k, p)
                for mono, c in reduced.terms.items():
                    assert len(mono) == 1
                    (alpha, t), = mono
                    assert t == 1 and len(alpha) == p
                    assert isinstance(c, ModInt) and c.p == p and c.value != 0

    def test_p5_k2_support(self):
        reduced = sh_pbw_char_p(2, 5)
        support = {mono[0][0] for mono in reduced.terms}
        # all length-5 Lyndon words with two letters 2
        assert support == {(1, 1, 1, 2, 2), (1, 1, 2, 1, 2)}

    def test_bad_k(self):
        with pytest.raises(ValueError):
            sh_pbw_char_p(0, 5)
        with pytest.raises(ValueError):
            sh_pbw_char_p(5, 5)
