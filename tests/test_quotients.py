import random
from fractions import Fraction
from math import comb, factorial

import pytest

from ncbinom import pbw, quotients, verify
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import PBWPoly, commutator_ls, pbw_rewrite
from ncbinom.quotients import (IdealNotMonomial, blumen_binomial,
                               blumen_binomial_rewrite,
                               blumen_higher_derivatives_vanish,
                               blumen_normalize, kill_project, lie_ideal_closure,
                               normal_order, qcomm_bell_closed, qcomm_bell_full,
                               qcomm_bell_recursive, qcomm_binomial,
                               qcomm_multinomial, qcomm_rule, weyl_binomial,
                               weyl_monomial)
from ncbinom.rings import (QPoly, exponent_vectors, q_binomial, q_factorial,
                           q_integer, qpoly_exact_div)
from ncbinom.words import is_lyndon, lyndon_enumerate


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
        killed = lie_ideal_closure([(1, 1, 2), (1, 2, 2)], 10)
        expect = {w for w in lyndon_enumerate(2, 10) if len(w) >= 3}
        assert killed == expect

    def test_single_long_generator_stays_small(self):
        killed = lie_ideal_closure([(1, 1, 1, 2)], 4)
        assert (1, 1, 1, 2) in killed
        assert all(len(w) == 4 for w in killed)

    def test_non_lyndon_generator_rejected(self):
        with pytest.raises(ValueError):
            lie_ideal_closure([(2, 1)], 4)

    def test_generator_outside_the_alphabet_rejected(self):
        # below the degree of the first bracket no basis element is built,
        # so the letters are checked up front
        for max_degree in (2, 3):
            with pytest.raises(ValueError, match="letter outside alphabet of size 2"):
                lie_ideal_closure([(1, 3)], max_degree, 2)

    def test_ideal_mixing_basis_elements_refused(self):
        # the Lie ideal generated by E_112 holds a combination of E_11222
        # and E_12122 but neither alone, so it has no basis of LS elements
        with pytest.raises(IdealNotMonomial, match=r"\(1, 1, 2, 2, 2\), \(1, 2, 1, 2, 2\)"):
            lie_ideal_closure([(1, 1, 2)], 5)


def _dense_closure(gens, max_degree, m=2):
    """The closure as it was first written, kept as an oracle: bracket each
    killed word with every Lyndon word of the complementary length and fully
    row-reduce a dense matrix, insisting each reduced row is a unit vector."""
    gens = [tuple(g) for g in gens]
    for g in gens:
        if not is_lyndon(g):
            raise ValueError(f"generator {g} is not a Lyndon word")
    all_lyndon = lyndon_enumerate(m, max_degree)
    killed = set()
    for d in range(1, max_degree + 1):
        basis = [w for w in all_lyndon if len(w) == d]
        idx = {w: i for i, w in enumerate(basis)}
        vectors = []
        for g in gens:
            if len(g) == d:
                v = [Fraction(0)] * len(basis)
                v[idx[g]] = Fraction(1)
                vectors.append(v)
        for gamma in killed:
            for beta in all_lyndon:
                if len(beta) != d - len(gamma) or beta == gamma:
                    continue
                if beta < gamma:
                    bracket = commutator_ls(beta, gamma, m)
                else:
                    bracket = commutator_ls(gamma, beta, m).scale(-1)
                v = [Fraction(0)] * len(basis)
                for mono, c in bracket.terms.items():
                    v[idx[mono[0][0]]] = Fraction(c)
                vectors.append(v)
        killed.update(_dense_unit_rows(vectors, basis))
    return killed


def _dense_unit_rows(vectors, basis):
    rows = [list(v) for v in vectors]
    n = len(basis)
    pivots = {}
    for row in rows:
        for col in range(n):
            if row[col] and col in pivots:
                f = row[col]
                row[:] = [a - f * b for a, b in zip(row, pivots[col])]
        lead = next((c for c in range(n) if row[c]), None)
        if lead is None:
            continue
        row[:] = [a / row[lead] for a in row]
        for col, prow in pivots.items():
            if prow[lead]:
                f = prow[lead]
                prow[:] = [a - f * b for a, b in zip(prow, row)]
        pivots[lead] = row
    out = []
    for col, row in pivots.items():
        if [c for c in range(n) if row[c]] != [col]:
            raise IdealNotMonomial(f"ideal mixes basis elements at {basis[col]}")
        out.append(basis[col])
    return out


def _closure_or_refusal(closure, gens, max_degree, m):
    try:
        return closure(gens, max_degree, m)
    except IdealNotMonomial:
        return "refused"


class TestClosureOracle:
    @pytest.mark.parametrize("gens, max_degree, m", [
        ([(1, 1, 2), (1, 2, 2)], 8, 2),
        ([(1, 1, 1, 2)], 6, 2),
        ([(1, 2)], 7, 2),
        ([(1, 1, 2)], 4, 2),
        ([(1, 1, 2)], 5, 2),
        ([(1, 1, 2, 2)], 7, 2),
        ([(1,)], 4, 2),
        ([(1, 3)], 5, 3),
        ([(2, 3), (1, 2)], 5, 3),
    ])
    def test_listed_sets_match_the_dense_closure(self, gens, max_degree, m):
        want = _closure_or_refusal(_dense_closure, gens, max_degree, m)
        assert _closure_or_refusal(lie_ideal_closure, gens, max_degree, m) == want

    def test_random_sets_match_the_dense_closure(self):
        rng = random.Random(18)
        outcomes = set()
        for _ in range(60):
            m = rng.choice((2, 3))
            gens = rng.sample(lyndon_enumerate(m, 4), rng.randint(1, 3))
            max_degree = min(max(map(len, gens)) + rng.randint(0, 2), 6 if m == 2 else 5)
            want = _closure_or_refusal(_dense_closure, gens, max_degree, m)
            assert _closure_or_refusal(lie_ideal_closure, gens, max_degree, m) == want, gens
            outcomes.add(want == "refused")
        assert outcomes == {False, True}


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

    def test_matches_the_integer_formula(self):
        # oracle: d!/(t2! 2^t12 t12! t1!) on E_2^t2 E_12^t12 E_1^t1, read off
        # independently of the product of binomials that weyl_binomial takes
        # in integers
        for d in range(33):
            want = {}
            for t12 in range(d // 2 + 1):
                for t2 in range(d - 2 * t12 + 1):
                    t1 = d - 2 * t12 - t2
                    want[weyl_monomial(t2, t12, t1)] = factorial(d) // (
                        factorial(t2) * 2 ** t12 * factorial(t12) * factorial(t1))
            assert weyl_binomial(d) == PBWPoly(want, 2)

    def test_coefficient_mass(self):
        # setting E_2 = E_1 = 1, E_12 = 0 recovers 2^d
        for d in range(7):
            total = sum(c for mono, c in weyl_binomial(d).terms.items()
                        if all(alpha != (1, 2) for alpha, _ in mono))
            assert total == 2 ** d


def _bumped_weyl_binomial(d):
    """weyl_binomial with the coefficient of the killed E_112 at d = 3 raised
    from 0 to 1.  The half-h formula reads only E_2, E_12 and E_1, so only the
    killed-expansion check can see this fault."""
    p = weyl_binomial(d)
    return p + PBWPoly.monomial((((1, 1, 2), 1),), 2) if d == 3 else p


class TestQComm:
    def test_normalize(self):
        got = normal_order({(3, 1, 2): QPoly.one()}, qcomm_rule)
        assert got == {(1, 2, 3): QPoly.q(6)}  # swaps cost q^3 twice
        assert normal_order({(): QPoly.one()}, qcomm_rule) == {(): QPoly.one()}
        # d2 d1 -> q^2 d1 d2 cancels against -q^2 d1 d2; equal words merge
        got = normal_order({(2, 1): QPoly.one(), (1, 2): -QPoly.q(2),
                            (3, 1): QPoly.one(), (1, 3): QPoly.one()}, qcomm_rule)
        assert got == {(1, 3): QPoly((1, 0, 0, 1))}

    def test_normalize_shifts_and_never_multiplies(self, monkeypatch):
        # every rule's factor is a monomial q^k, so a coefficient is shifted
        def refuse(self, other):
            raise AssertionError("a QPoly product in normal_order")
        monkeypatch.setattr(QPoly, "__mul__", refuse)
        monkeypatch.setattr(QPoly, "__rmul__", refuse)
        assert normal_order({(3, 1, 2): QPoly.one()}, qcomm_rule) == {(1, 2, 3): QPoly.q(6)}
        assert blumen_normalize({("x", "y"): QPoly((1, 1))}) == {
            ("y", "x"): QPoly((0, 1, 1)), ("h",): QPoly((1, 1))}

    def test_normalize_confluence(self):
        # cost only depends on the multiset inversion structure
        import itertools
        for perm in itertools.permutations((1, 2, 2, 3)):
            inv = sum(a for i, a in enumerate(perm)
                      for b in perm[i + 1:] if a > b)
            got = normal_order({perm: QPoly.one()}, qcomm_rule)
            assert got == {(1, 2, 2, 3): QPoly.q(inv)}

    def test_worked_example_3_2(self):
        # B(3,2) over the d-alphabet: (3)_q d_1 d_2
        got = qcomm_bell_closed(3, 2)
        assert got == {(1, 2): q_integer(3)}

    def test_worked_example_4_2(self):
        got = qcomm_bell_closed(4, 2)
        assert set(got) == {(1, 3), (2, 2)}
        assert got[(2, 2)] * q_factorial_sq() == q_binomial(4, 2)

    def test_routes_agree_to_8(self):
        for n in range(9):
            for k in range(n + 1):
                assert qcomm_bell_recursive(n, k) == qcomm_bell_closed(n, k)

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
        qcomm_bell_closed(4, 2)
        qcomm_bell_full(5)
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

    def test_higher_derivatives_vanish(self):
        assert blumen_higher_derivatives_vanish()


_WRONG_MULTINOMIAL = (
    "from ncbinom import quotients\n"
    "from ncbinom.rings import QPoly\n"
    "right = quotients.qcomm_multinomial\n"
    "def wrong(ts, t=0, *binom):\n"
    "    c = right(ts, t, *binom)\n"
    "    return c + QPoly.q(1) if len(ts) > 1 and ts[1] else c\n"
    "quotients.qcomm_multinomial = wrong\n")


def _quotient_multinomial(ts, t=0):
    """The q-multinomial as a quotient of q-factorials, (n)_q! over
    (t)_q! prod_i ((i)_q!)^{t_i} (t_i)_{q^i}!, with (j)_{q^i} spelled out as
    1 + q^i + ... + q^{i(j-1)}."""
    n = t + sum(i * ti for i, ti in enumerate(ts, start=1))
    den = q_factorial(t)
    for i, ti in enumerate(ts, start=1):
        for j in range(1, ti + 1):
            den = den * q_factorial(i) * QPoly([int(k % i == 0) for k in range(i * (j - 1) + 1)])
    return qpoly_exact_div(q_factorial(n), den)


class TestSharedMultinomial:
    """The Blumen, Weyl and q-commutative closed forms all read
    ``qcomm_multinomial``; a fault there (a stray q on every word with a d_2,
    that is an h) must fail both suites that hold those closed forms."""

    def test_product_of_binomials_equals_the_quotient(self):
        # every exponent vector with n <= 12, over Z[q] and at q = 1
        checked = 0
        for n in range(13):
            for t in range(n + 1):
                for ts in exponent_vectors(n - t, range(1, n - t + 1)):
                    want = _quotient_multinomial(ts, t)
                    got = qcomm_multinomial(ts, t)
                    assert got.coeffs == want.coeffs, (ts, t)
                    assert qcomm_multinomial(ts, t, comb) == want(1), (ts, t)
                    checked += 1
        assert checked == 890

    def test_wrong_multinomial_fails_blumen_and_qcomm(self, monkeypatch):
        # the setattr makes monkeypatch put the right function back afterwards
        monkeypatch.setattr(quotients, "qcomm_multinomial", quotients.qcomm_multinomial)
        exec(_WRONG_MULTINOMIAL, {})
        assert verify.run_suite("blumen", 6) == (
            False, "Blumen closed form disagrees with rewriting at n=2")
        assert verify.run_suite("qcomm", 6) == (
            False, "q-commutative Bell routes disagree at (n=2, k=1)")

    @pytest.mark.parametrize("suite, detail", [
        ("blumen", b"blumen: FAIL (Blumen closed form disagrees with rewriting at n=2)"),
        ("qcomm", b"qcomm: FAIL (q-commutative Bell routes disagree at (n=2, k=1))")])
    def test_wrong_multinomial_under_O(self, verify_under_O, suite, detail):
        done = verify_under_O(suite, _WRONG_MULTINOMIAL)
        assert done.returncode == 1, done.stderr.decode()
        assert detail in done.stdout
