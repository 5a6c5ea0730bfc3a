from math import comb

import pytest

from ncbinom import cli, identities
from ncbinom.freepoly import FreePoly, sh_multidegree
from ncbinom.identities import (a_word, faa_composition_sum, faa_di_bruno_check,
                                q_binomial_theorem_check, qbinom_cyclotomic_vanish)
from ncbinom.quotients import blumen_binomial_rewrite, normal_order, normal_power
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


# binom(7,3)_q planted one too large in its constant term
_PLANT_WRONG_BINOMIAL = (
    "from ncbinom import identities, rings\n"
    "def planted(n, j):\n"
    "    bump = rings.QPoly.one() if (n, j) == (7, 3) else rings.QPoly()\n"
    "    return rings.q_binomial(n, j) + bump\n")
_WRONG_BINOMIAL_DETAIL = "quantum-plane binomial failed at n=7"


# the quantum-plane rule planted with q^2 in place of q
_PLANT_WRONG_RULE = (
    "from ncbinom import identities\n"
    "def planted(a, b):\n"
    "    return (((b, a), 2),) if (a, b) == (1, 2) else None\n")
_WRONG_RULE_DETAIL = "quantum-plane binomial failed at n=2"


def _normalize(poly):
    """A dict word -> QPoly normal-ordered in the quantum plane."""
    return normal_order(poly, identities._quantum_plane_rule)


def _ordered(f):
    """The word polynomial f normal-ordered, its coefficients read in Q[q]."""
    return _normalize({w: QPoly.const(c) for w, c in f.terms.items()})


class TestQuantumPlane:
    def test_normal_order_single_word(self):
        # g h -> q h g : one inversion
        assert _ordered(FreePoly.word((1, 2))) == {(2, 1): QPoly.q(1)}
        assert _ordered(FreePoly.word((2, 1))) == {(2, 1): QPoly.one()}

    def test_sh_gives_gaussian_binomials(self):
        # SH_{i,n-i}(h,g) normal-orders to binom(n,i)_q h^i g^{n-i}: the
        # binomial theorem below, split by component
        for n in range(1, 9):
            for i in range(n + 1):
                got = _ordered(sh_multidegree((n - i, i)))
                assert got == {(2,) * i + (1,) * (n - i): q_binomial(n, i)}

    def test_binomial_theorem(self):
        # the check builds (g+h)^n one letter at a time; the free-algebra
        # power, normal-ordered whole, is the reference route
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        for n in range(9):
            assert q_binomial_theorem_check(n)
            power = normal_power((1, 2), n, _normalize)
            assert _ordered((x + y) ** n) == power == {
                (2,) * (n - j) + (1,) * j: q_binomial(n, j) for j in range(n + 1)}

    def test_verify_cyclotomic_sees_a_wrong_gaussian_binomial(self, monkeypatch, capsys):
        scope = {}
        exec(_PLANT_WRONG_BINOMIAL, scope)
        monkeypatch.setattr(identities, "q_binomial", scope["planted"])
        assert cli.main(["verify", "cyclotomic", "--max-degree", "3"]) == 1
        assert capsys.readouterr().out == f"cyclotomic: FAIL ({_WRONG_BINOMIAL_DETAIL})\n"

    def test_verify_cyclotomic_sees_a_wrong_gaussian_binomial_under_O(self, verify_under_O):
        done = verify_under_O("cyclotomic", _PLANT_WRONG_BINOMIAL
                              + "identities.q_binomial = planted\n", "--max-degree", "3")
        assert done.returncode == 1, done.stderr.decode()
        assert done.stdout == f"cyclotomic: FAIL ({_WRONG_BINOMIAL_DETAIL})\n".encode()

    def test_verify_cyclotomic_sees_a_wrong_rule(self, monkeypatch, capsys):
        scope = {}
        exec(_PLANT_WRONG_RULE, scope)
        monkeypatch.setattr(identities, "_quantum_plane_rule", scope["planted"])
        assert cli.main(["verify", "cyclotomic"]) == 1
        assert capsys.readouterr().out == f"cyclotomic: FAIL ({_WRONG_RULE_DETAIL})\n"

    def test_verify_cyclotomic_sees_a_wrong_rule_under_O(self, verify_under_O):
        done = verify_under_O("cyclotomic", _PLANT_WRONG_RULE
                              + "identities._quantum_plane_rule = planted\n")
        assert done.returncode == 1, done.stderr.decode()
        assert done.stdout == f"cyclotomic: FAIL ({_WRONG_RULE_DETAIL})\n".encode()

    def test_pure_powers(self):
        assert _ordered(FreePoly.word((2, 2, 2))) == {(2, 2, 2): QPoly.one()}
        assert _ordered(FreePoly.word((1, 1))) == {(1, 1): QPoly.one()}

    def test_negative_power_is_refused(self):
        # by the power loop that the Blumen rewrite shares
        for power in (q_binomial_theorem_check, blumen_binomial_rewrite):
            with pytest.raises(ValueError, match="negative power"):
                power(-1)


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
