import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest

from ncbinom import cli, shuffle, verify
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import (PBWPoly, enumerate_pbw_monomials, monomial_from_word,
                         pbw_expand, reduce_mod_p)
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
            p = sh_pbw((i, j))
            assert p.coeff(((alpha, 1),)) == c_e_alpha(alpha)


class TestClosedForm:
    def test_small_binary_example(self):
        # SH_{1,1} = xy + yx = 2 E_2 E_1 + E_12
        got = sh_closed_form((1, 1)).poly()
        want = (PBWPoly.monomial((((2,), 1), ((1,), 1)), coeff=2)
                + PBWPoly.monomial((((1, 2), 1),)))
        assert got == want

    def test_agrees_with_rewrite_binary(self):
        for i in range(7):
            for j in range(7):
                if i + j > 8:
                    continue
                assert sh_closed_form((i, j)).poly() == sh_pbw((i, j))

    def test_agrees_with_rewrite_ternary(self):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if a + b + c > 5:
                        continue
                    assert sh_closed_form((a, b, c)).poly() == sh_pbw((a, b, c))

    def test_mass_is_binomial(self):
        from math import comb
        for i in range(6):
            for j in range(6):
                p = sh_closed_form((i, j)).poly()
                assert pbw_expand(p).terms.keys() == {
                    w for w in pbw_expand(sh_pbw((i, j))).terms}
                total = sum(pbw_expand(p).terms.values())
                assert total == comb(i + j, i)

    def test_word_monomial_has_coeff_from_formula(self):
        mono = monomial_from_word((2, 2, 1, 2, 1))
        assert coeff_closed_form(mono) == sh_pbw((3, 2)).coeff(mono)

    def test_every_monomial_matches_rewrite(self):
        for d in range(8):
            for i in range(d + 1):
                rewritten = sh_pbw((i, d - i))
                for mono in enumerate_pbw_monomials((d - i, i)):
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
            assert pbw_expand(binomial_ls(2, d).poly()) == (x + y) ** d

    def test_ternary(self):
        s = (FreePoly.letter(1, m=3) + FreePoly.letter(2, m=3)
             + FreePoly.letter(3, m=3))
        for d in range(5):
            assert pbw_expand(binomial_ls(3, d).poly()) == s ** d

    def test_bad_args(self):
        with pytest.raises(ValueError):
            binomial_ls(1, 3)
        with pytest.raises(ValueError):
            binomial_ls(2, -1)


_NEGATED_BINOMIAL = (
    "from ncbinom import shuffle\n"
    "right = shuffle.binomial_ls\n"
    "shuffle.binomial_ls = lambda m, d: right(m, d).map_coeffs(lambda c: -c)\n")


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


def _multinomial(counts):
    return factorial(sum(counts)) // prod(factorial(c) for c in counts)


class TestStreams:
    """The closed routes print a stream: terms in key order, counted here off
    the walk, with no dict."""

    def test_binomial_walk_is_in_key_order_with_every_word(self):
        for d in range(15):
            prev, count = None, 0
            for mono, c in binomial_ls(2, d).walk():
                assert prev is None or prev < mono
                assert type(c) is int and c > 0
                prev, count = mono, count + 1
            assert count == 2 ** d

    @pytest.mark.parametrize("m, max_total", [(2, 12), (3, 7)])
    def test_closed_form_has_one_term_per_word(self, m, max_total):
        for counts in product(range(max_total + 1), repeat=m):
            if sum(counts) <= max_total:
                count = sum(1 for _ in sh_closed_form(counts).walk())
                assert count == _multinomial(counts), counts

    def test_declared_rings(self):
        assert sh_closed_form((2, 3)).ring == binomial_ls(3, 2).ring == "Q"
        reduced = reduce_mod_p(binomial_ls(2, 5), 5)
        assert reduced.ring == "GF:5"
        assert all(isinstance(c, ModInt) and c.p == 5 and c.value for _, c in reduced.walk())
        assert reduced.poly() == reduce_mod_p(binomial_ls(2, 5).poly(), 5)


# E_2^3 E_1^3, a monomial of content (3,3), gains 1 as the streams are walked
_PLANT_IN_STREAM = (
    "from ncbinom import shuffle\n"
    "right = shuffle.coeff_closed_form\n"
    "def planted(mono):\n"
    "    return right(mono) + (mono == (((2,), 3), ((1,), 3)))\n"
    "shuffle.coeff_closed_form = planted\n")


@pytest.mark.parametrize("suite, detail", [("theorem-a", "binary mismatch at (3,3)"),
                                           ("appendix", "mismatch at n=6, SH_{3,3}")])
class TestPlantInsideTheStream:
    def test_plain(self, monkeypatch, capsys, suite, detail):
        monkeypatch.setattr(shuffle, "coeff_closed_form", shuffle.coeff_closed_form)
        exec(_PLANT_IN_STREAM, {})
        assert cli.main(["verify", suite]) == 1
        assert capsys.readouterr().out == f"{suite}: FAIL ({detail})\n"

    def test_under_O(self, verify_under_O, suite, detail):
        done = verify_under_O(suite, _PLANT_IN_STREAM)
        assert (done.returncode, done.stderr) == (1, b""), done.stderr.decode()
        assert done.stdout == f"{suite}: FAIL ({detail})\n".encode()


class TestIntegralityErrorEndsTheCommand:
    """The coefficients are computed as the output is written, so a broken
    divisibility check fails the command after the terms before it; its exit
    code is still nonzero."""

    PLANT = ("from fractions import Fraction\n"
             "from ncbinom import shuffle\n"
             "right = shuffle.c_e_alpha\n"
             "shuffle.c_e_alpha = lambda alpha: Fraction(1, 2) if len(alpha) == 9 else right(alpha)\n")

    def test_plain(self, monkeypatch):
        monkeypatch.setattr(shuffle, "c_e_alpha", shuffle.c_e_alpha)
        exec(self.PLANT, {})
        with pytest.raises(IntegralityError):
            cli.main(["binom", "--degree", "9"])

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_exit_code(self, flags):
        script = self.PLANT + ("from ncbinom import cli\n"
                               "cli.main(['binom', '--degree', '9'])\n")
        src = str(Path(shuffle.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert done.returncode == 1
        assert b"IntegralityError" in done.stderr
