import pytest

from ncbinom import bell, verify
from ncbinom.bell import (_dual_rec, bell_dual, bell_partial, bell_word,
                          binomial_via_bell, classical_bell_formula,
                          classical_bell_project, drop_boundary, sh_filter)
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import PBWPoly, monomial_word, pbw_rewrite
from ncbinom.qsigma import bell_partials

X = FreePoly.letter(1, 2)
Y = FreePoly.letter(2, 2)


def M(*factors):
    return PBWPoly.monomial(tuple(factors), 2)


class TestRecursion:
    def test_base_cases(self):
        assert bell_partials(0) == (FreePoly.unit(2),)
        assert bell_partials(3)[0] == FreePoly.zero(2)
        assert bell_partial(3, 5).poly() == PBWPoly.zero(2)
        assert bell_dual(3, 5).poly() == PBWPoly.zero(2)
        assert bell_partial(0, 0).poly() == bell_dual(0, 0).poly() == M()
        for bad in (lambda: bell_partials(-1),
                    lambda: bell_partial(2, -1), lambda: bell_dual(2, -1),
                    lambda: bell_partial(-1, 0), lambda: bell_dual(-1, 0),
                    lambda: bell_partial(-1, 2), lambda: bell_dual(-1, 2)):
            with pytest.raises(ValueError):
                bad()

    def test_first_values(self):
        assert bell_partials(1)[1] == Y
        assert bell_partials(2)[2] == Y * Y
        # B(2,1) = [x, y] = E_12
        assert bell_partial(2, 1).poly() == M(((1, 2), 1))

    def test_worked_value_3_2(self):
        # B(3,2) = 3 E_2 E_12 + E_122
        want = M(((2,), 1), ((1, 2), 1)).scale(3) + M(((1, 2, 2), 1))
        assert bell_partial(3, 2).poly() == want

    def test_worked_value_4_2(self):
        got = bell_partial(4, 2).poly()
        # leading classical term 3 E_12^2 plus 4 E_2 E_112
        assert got.coeff((((1, 2), 2),)) == 3
        assert got.coeff((((2,), 1), ((1, 1, 2), 1))) == 4

    def test_homogeneity(self):
        for n in range(7):
            for k, p in enumerate(bell_partials(n)):
                for w in p.terms:
                    assert len(w) == n
                    assert sum(1 for a in w if a == 2) == k
            for k in range(n + 1):
                for mono, _ in bell_dual(n, k).walk():
                    w = monomial_word(mono)
                    assert len(w) == n
                    assert sum(1 for a in w if a == 1) == k

    def test_partials_follow_the_bell_recursion(self):
        # B(n,k) = y B(n-1,k-1) + [x, B(n-1,k)]
        for n in range(1, 7):
            prev = bell_partials(n - 1) + (FreePoly.zero(2),)
            for k, p in enumerate(bell_partials(n)):
                below = prev[k - 1] if k else FreePoly.zero(2)
                assert p == Y * below + X * prev[k] - prev[k] * X


class TestFilterIdentity:
    def test_partial_equals_filtered_shuffle(self):
        # B(n,k) = SH_{k,n-k} minus terms ending in a bare E_1 factor
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert (bell_partial(n, k).poly()
                        == sh_filter((k, n - k), "rightmost_not_E1").poly())

    def test_dual_partial_equals_leftmost_filter(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                got = bell_dual(n, k).poly()
                assert got == sh_filter((n - k, k), "leftmost_not_E2").poly()

    def test_dual_full_is_sum_of_parts(self):
        # the dual recursion on the whole polynomial, at swapped arguments
        for n in range(7):
            total = PBWPoly.zero(2)
            for k in range(n + 1):
                total = total + bell_dual(n, k).poly()
            assert total == pbw_rewrite(_dual_rec(n, Y, X))

    def test_closed_form_assembly(self):
        # the closed route against the Bell triangle and the dual recursion
        # (at swapped arguments, split by the count of letters 1), for every
        # k and n up to the CLI's default degree cap
        for n in range(11):
            parts = bell_partials(n)
            dual = _dual_rec(n, Y, X)
            for k in range(n + 3):
                part = parts[k] if k <= n else FreePoly.zero(2)
                assert bell_partial(n, k).poly() == pbw_rewrite(part)
                word = FreePoly({w: c for w, c in dual.terms.items() if w.count(1) == k}, 2)
                assert bell_dual(n, k).poly() == pbw_rewrite(word)

    def test_drop_boundary(self):
        p = M(((2,), 1), ((1,), 2)) + M(((2,), 1), ((1, 2), 1)) + M(((1, 2), 1), ((1,), 1)) + M()
        assert drop_boundary(p, "rightmost_not_E1").poly() == M(((2,), 1), ((1, 2), 1)) + M()
        assert drop_boundary(p, "leftmost_not_E2").poly() == M(((1, 2), 1), ((1,), 1)) + M()


def _planted_filter(side):
    """Source defining ``planted``, a fault in the shared boundary filter: on
    one side it drops a boundary factor only when its exponent is 1, so E_1^2
    (or E_2^2) survives and B(2,0) (or B*(2,0)) is no longer zero."""
    return ("from ncbinom import bell\n"
            "from ncbinom.pbw import PBWStream\n"
            "filt = bell.drop_boundary\n"
            "def planted(p, s):\n"
            f"    if s != {side!r}:\n"
            "        return filt(p, s)\n"
            "    end, alpha = bell._BOUNDARY[s]\n"
            "    return PBWStream(2, lambda: ((m, c) for m, c in p.walk()\n"
            "                                 if not (m and m[end] == (alpha, 1))))\n")


@pytest.mark.parametrize("side, detail", [
    ("rightmost_not_E1", "primal definition mismatch at (2,0)"),
    ("leftmost_not_E2", "dual definition mismatch at (2,0)"),
])
class TestTheoremCSeesTheSharedFilter:
    # the closed and rewrite routes share drop_boundary, so only the
    # definition route can see a fault in it

    def test_in_process(self, monkeypatch, side, detail):
        scope = {}
        exec(_planted_filter(side), scope)
        monkeypatch.setattr(bell, "drop_boundary", scope["planted"])
        assert verify.verify_theorem_c() == (False, detail)

    def test_under_O(self, verify_under_O, side, detail):
        done = verify_under_O("theorem-c",
                              _planted_filter(side) + "bell.drop_boundary = planted\n")
        assert done.returncode == 1, done.stderr.decode()
        assert f"theorem-c: FAIL ({detail})".encode() in done.stdout


class TestBinomialExpansions:
    def test_direct_and_dual(self):
        x, y = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
        for n in range(7):
            assert binomial_via_bell(n) == (x + y) ** n
            assert binomial_via_bell(n, dual=True) == (x + y) ** n

    def test_verify_lemma42_catches_a_wrong_expansion_under_O(self, verify_under_O):
        done = verify_under_O("lemma42", (
            "from ncbinom import bell\n"
            "from ncbinom.freepoly import FreePoly\n"
            "expand = bell.binomial_via_bell\n"
            "def bumped(n, dual=False):\n"
            "    p = expand(n, dual)\n"
            "    return p + FreePoly.word((2, 1, 2), 2) if n == 3 else p\n"
            "bell.binomial_via_bell = bumped\n"))
        assert done.returncode == 1, done.stderr.decode()
        assert b"lemma42: FAIL (Bell binomial identity failed at n=3)" in done.stdout

    def test_verify_lemma42_catches_a_wrong_projection_under_O(self, verify_under_O):
        done = verify_under_O("lemma42", (
            "from ncbinom import bell\n"
            "project = bell.classical_bell_project\n"
            "def bumped(n):\n"
            "    p = project(n)\n"
            "    return p.scale(2) if n == 4 else p\n"
            "bell.classical_bell_project = bumped\n"))
        assert done.returncode == 1, done.stderr.decode()
        assert b"lemma42: FAIL (classical Bell mismatch at n=4)" in done.stdout


class TestClassicalSpecialization:
    def test_projection_matches_formula(self):
        for n in range(1, 8):
            assert classical_bell_project(n) == classical_bell_formula(n)

    def test_formula_coefficients_n4(self):
        # B_4 classically: y^4 + 6 y^2 y' + 3 y'^2 + 4 y y'' + y'''
        got = classical_bell_formula(4)
        assert got.coeff((((2,), 4),)) == 1
        assert got.coeff((((2,), 2), ((1, 2), 1))) == 6
        assert got.coeff((((1, 2), 2),)) == 3
        assert got.coeff((((2,), 1), ((1, 1, 2), 1))) == 4
        assert got.coeff((((1, 1, 1, 2), 1),)) == 1

    def test_total_mass_is_bell_number(self):
        # summing all coefficients gives the Bell numbers 1,1,2,5,15,52,203
        bell_numbers = [1, 1, 2, 5, 15, 52, 203]
        for n, b in enumerate(bell_numbers):
            total = sum(classical_bell_formula(n).terms.values())
            assert total == b


class TestFullPolynomial:
    def test_full_equals_shuffle_sum_filtered(self):
        for n in range(1, 7):
            total = PBWPoly.monomial((), 2) if n == 0 else PBWPoly.zero(2)
            for k in range(n + 1):
                total = total + bell_partial(n, k).poly()
            assert total == pbw_rewrite(bell_word(n))

    def test_bad_filter_side(self):
        with pytest.raises(ValueError):
            sh_filter((1, 1), "sideways")
