from math import comb

import pytest

from ncbinom import pbw, quotients, verify
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import PBWPoly, pbw_rewrite
from ncbinom.quotients import (IdealNotMonomial, blumen_binomial,
                               blumen_binomial_rewrite,
                               blumen_higher_derivatives_vanish,
                               blumen_normalize, blumen_weyl_compare,
                               kill_project, lie_ideal_closure, qcomm_bell,
                               qcomm_bell_closed, qcomm_bell_full,
                               qcomm_bell_recursive, qcomm_binomial,
                               qcomm_normalize, weyl_binomial)
from ncbinom.rings import QPoly, q_binomial, q_integer


class TestKillProject:
    def test_drops_terms_with_killed_factor(self):
        p = pbw_rewrite(FreePoly.word((1, 2)))  # E_12 + E_2 E_1
        got = kill_project(p, [(1, 2)])
        assert got == PBWPoly.monomial((((2,), 1), ((1,), 1)))
        assert kill_project(p, []) == p

    def test_kill_everything(self):
        p = pbw_rewrite(FreePoly.word((1, 2)))
        assert kill_project(p, [(1,), (2,), (1, 2)]) == PBWPoly.zero(2)


class TestLieIdealClosure:
    def test_weyl_generators(self):
        # killing [x,[x,y]] and [[x,y],y] kills every Lyndon word of
        # length >= 3
        killed = lie_ideal_closure([(1, 1, 2), (1, 2, 2)], 6)
        from ncbinom.words import lyndon_enumerate
        expect = {w for w in lyndon_enumerate(2, 6) if len(w) >= 3}
        assert killed == expect

    def test_single_long_generator_stays_small(self):
        killed = lie_ideal_closure([(1, 1, 1, 2)], 4)
        assert (1, 1, 1, 2) in killed
        assert all(len(w) == 4 for w in killed)

    def test_non_lyndon_generator_rejected(self):
        with pytest.raises(ValueError):
            lie_ideal_closure([(2, 1)], 4)


class TestWeyl:
    def test_small_cases(self):
        # d=2: y^2 + 2 yx + h + x^2 with h = E_12
        got = weyl_binomial(2)
        assert got.coeff((((2,), 2),)) == 1
        assert got.coeff((((2,), 1), ((1,), 1))) == 2
        assert got.coeff((((1, 2), 1),)) == 1
        assert got.coeff((((1,), 2),)) == 1

    def test_closed_form_computes_once(self, monkeypatch):
        # the killed free expansion is the second route; weyl_binomial must
        # agree with it without running it
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        want = kill_project(pbw_rewrite((x + y) ** 9),
                            lie_ideal_closure([(1, 1, 2), (1, 2, 2)], 9))

        def second_route(*args):
            raise RuntimeError("second route called")
        monkeypatch.setattr(quotients, "lie_ideal_closure", second_route)
        monkeypatch.setattr(pbw, "pbw_rewrite", second_route)
        monkeypatch.setattr(quotients, "pbw_rewrite", second_route, raising=False)
        assert weyl_binomial(9) == want

    def test_verify_blumen_catches_a_wrong_coefficient(self, monkeypatch):
        monkeypatch.setattr(quotients, "weyl_binomial", _bumped_weyl_binomial)
        ok, detail = verify.run_suite("blumen", 6)
        assert not ok
        assert "killed expansion" in detail

    def test_verify_blumen_catches_a_wrong_coefficient_under_O(self, verify_under_O):
        done = verify_under_O("blumen", (
            "from ncbinom import quotients\n"
            "from ncbinom.pbw import PBWPoly\n"
            "weyl = quotients.weyl_binomial\n"
            "def bumped(d):\n"
            "    p = weyl(d)\n"
            "    return p + PBWPoly.monomial((((1, 1, 2), 1),), 2) if d == 3 else p\n"
            "quotients.weyl_binomial = bumped\n"))
        assert done.returncode == 1, done.stderr.decode()
        assert b"blumen: FAIL" in done.stdout

    def test_coefficient_mass(self):
        # setting E_2 = E_1 = 1, E_12 = 0 recovers 2^d
        for d in range(7):
            total = sum(c for mono, c in weyl_binomial(d).terms.items()
                        if all(alpha != (1, 2) for alpha, _ in mono))
            assert total == 2 ** d


def _bumped_weyl_binomial(d):
    """weyl_binomial with the coefficient of the killed E_112 at d = 3 raised
    from 0 to 1.  The q=1 Blumen comparison reads only E_2, E_12 and E_1, so
    only the killed-expansion check can see this fault."""
    p = weyl_binomial(d)
    return p + PBWPoly.monomial((((1, 1, 2), 1),), 2) if d == 3 else p


class TestQComm:
    def test_normalize(self):
        f, w = qcomm_normalize((3, 1, 2))
        assert w == (1, 2, 3)
        assert f == QPoly.q(6)  # swaps cost q^3 twice
        assert qcomm_normalize(()) == (QPoly.one(), ())

    def test_normalize_confluence(self):
        # cost only depends on the multiset inversion structure
        import itertools
        for perm in itertools.permutations((1, 2, 2, 3)):
            f, w = qcomm_normalize(perm)
            assert w == (1, 2, 2, 3)
            inv = sum(a for i, a in enumerate(perm)
                      for b in perm[i + 1:] if a > b)
            assert f == QPoly.q(inv)

    def test_worked_example_3_2(self):
        # B(3,2) over the d-alphabet: (3)_q d_1 d_2
        got = qcomm_bell(3, 2)
        assert got == {(1, 2): q_integer(3)}

    def test_worked_example_4_2(self):
        got = qcomm_bell(4, 2)
        assert set(got) == {(1, 3), (2, 2)}
        assert got[(2, 2)] * q_factorial_sq() == q_binomial(4, 2)

    def test_routes_agree_to_8(self):
        for n in range(9):
            for k in range(n + 1):
                assert qcomm_bell_recursive(n, k) == qcomm_bell_closed(n, k)
                assert qcomm_bell(n, k) == qcomm_bell_closed(n, k)

    def test_full_bell_at_q_one(self):
        # q=1 coefficients are the multinomial Bell coefficients; total mass
        # over all k is the Bell number
        bell_numbers = [1, 1, 2, 5, 15, 52, 203]
        for n, b in enumerate(bell_numbers):
            total = sum(c(1) for c in qcomm_bell_full(n).values())
            assert total == b

    def test_binomial_cross_check(self):
        # coefficient of d-word times x^t = binom(n, n-t)_q * full-Bell part
        full = [qcomm_bell_full(k) for k in range(7)]
        for n in range(7):
            want = {(word, n - k): q_binomial(n, k) * c
                    for k in range(n + 1) for word, c in full[k].items()}
            assert qcomm_binomial(n) == want

    def test_verify_qcomm_catches_a_wrong_closed_form_under_O(self, verify_under_O):
        done = verify_under_O("qcomm", (
            "from ncbinom import quotients\n"
            "from ncbinom.rings import QPoly\n"
            "closed = quotients.qcomm_bell_closed\n"
            "def bumped(n, k):\n"
            "    out = closed(n, k)\n"
            "    return {w: c + QPoly.one() for w, c in out.items()}\n"
            "quotients.qcomm_bell_closed = bumped\n"))
        assert done.returncode == 1, done.stderr.decode()
        assert b"qcomm: FAIL (q-commutative Bell routes disagree at (n=0, k=0))" in done.stdout

    def test_production_call_skips_the_recursion(self, monkeypatch):
        def second_route(*args):
            raise RuntimeError("second route called")
        monkeypatch.setattr(quotients, "qcomm_bell_recursive", second_route)
        assert qcomm_bell(4, 2) == qcomm_bell_closed(4, 2)
        qcomm_binomial(5)


def q_factorial_sq():
    # (2)_{q^2}! = 1 + q^2, the denominator piece for a repeated symbol 2
    return QPoly((1, 0, 1))


class TestBlumen:
    def test_normalize_single_rule(self):
        got = blumen_normalize({("x", "y"): QPoly.one()})
        assert got == {("y", "x"): QPoly.q(1), ("h",): QPoly.one()}

    def test_normalize_h_moves(self):
        assert blumen_normalize({("x", "h"): QPoly.one()}) == {
            ("h", "x"): QPoly.q(2)}
        assert blumen_normalize({("h", "y"): QPoly.one()}) == {
            ("y", "h"): QPoly.q(2)}

    def test_binomial_small(self):
        got = blumen_binomial(2)
        assert got[(2, 0, 0)] == QPoly.one()
        assert got[(1, 0, 1)] == QPoly((1, 1))  # (2)_q
        assert got[(0, 1, 0)] == QPoly.one()
        assert got[(0, 0, 2)] == QPoly.one()

    def test_closed_form_equals_rewrite(self):
        for n in range(8):
            assert blumen_binomial_rewrite(n) == blumen_binomial(n)

    def test_production_call_skips_the_rewrite(self, monkeypatch):
        def second_route(*args):
            raise RuntimeError("second route called")
        monkeypatch.setattr(quotients, "blumen_normalize", second_route)
        assert blumen_binomial(3)[(1, 1, 0)] == QPoly((1, 1, 1))

    def test_verify_blumen_catches_a_wrong_closed_form_under_O(self, verify_under_O):
        done = verify_under_O("blumen", (
            "from ncbinom import quotients\n"
            "from ncbinom.rings import QPoly\n"
            "closed = quotients.blumen_binomial\n"
            "def bumped(n):\n"
            "    out = closed(n)\n"
            "    if n == 4:\n"
            "        out[(2, 1, 0)] = out[(2, 1, 0)] + QPoly.q(1)\n"
            "    return out\n"
            "quotients.blumen_binomial = bumped\n"))
        assert done.returncode == 1, done.stderr.decode()
        assert b"blumen: FAIL" in done.stdout
        assert b"rewriting at n=4" in done.stdout

    def test_collapses_to_weyl_at_q_one(self):
        for n in range(7):
            assert blumen_weyl_compare(n)

    def test_higher_derivatives_vanish(self):
        assert blumen_higher_derivatives_vanish(6)
