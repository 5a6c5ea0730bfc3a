import pytest

from ncbinom.bell import (_dual_rec, bell_dual, bell_ls_form, bell_partial, bell_word,
                          binomial_via_bell, classical_bell_formula,
                          classical_bell_project, sh_filter)
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import PBWPoly, pbw_rewrite
from ncbinom.qsigma import bell_dual_partials, bell_partials, partial_at

X = FreePoly.letter(1, 2)
Y = FreePoly.letter(2, 2)


def M(*factors):
    return PBWPoly.monomial(tuple(factors), 2)


class TestRecursion:
    def test_base_cases(self):
        assert bell_partials(0) == (FreePoly.unit(2),)
        assert bell_partials(3)[0] == FreePoly.zero(2)
        assert partial_at(bell_partials(2), 3) == FreePoly.zero(2)
        assert bell_partial(3, 5) == PBWPoly.zero(2)
        assert bell_dual(3, 5) == PBWPoly.zero(2)
        for bad in (lambda: bell_partials(-1), lambda: bell_dual_partials(-1),
                    lambda: partial_at(bell_partials(2), -1), lambda: bell_partial(2, -1),
                    lambda: bell_dual(2, -1)):
            with pytest.raises(ValueError):
                bad()

    def test_first_values(self):
        assert bell_partials(1)[1] == Y
        assert bell_partials(2)[2] == Y * Y
        # B(2,1) = [x, y] = E_12
        assert bell_partial(2, 1) == M(((1, 2), 1))

    def test_worked_value_3_2(self):
        # B(3,2) = 3 E_2 E_12 + E_122
        want = M(((2,), 1), ((1, 2), 1)).scale(3) + M(((1, 2, 2), 1))
        assert bell_partial(3, 2) == want

    def test_worked_value_4_2(self):
        got = bell_partial(4, 2)
        # leading classical term 3 E_12^2 plus 4 E_2 E_112
        assert got.coeff((((1, 2), 2),)) == 3
        assert got.coeff((((2,), 1), ((1, 1, 2), 1))) == 4

    def test_homogeneity(self):
        for n in range(7):
            for k, p in enumerate(bell_partials(n)):
                for w in p.terms:
                    assert len(w) == n
                    assert sum(1 for a in w if a == 2) == k
            for k, p in enumerate(bell_dual_partials(n)):
                for w in p.terms:
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
                assert bell_partial(n, k) == sh_filter((k, n - k), "rightmost_not_E1")

    def test_closed_form_assembly(self):
        for n in range(8):
            for k in range(n + 1):
                assert bell_ls_form(n, k) == bell_partial(n, k)

    def test_dual_partial_equals_leftmost_filter(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                got = bell_dual(n, k)
                assert got == sh_filter((n - k, k), "leftmost_not_E2")

    def test_dual_full_is_sum_of_parts(self):
        # the dual recursion on the whole polynomial, at swapped arguments
        for n in range(7):
            total = FreePoly.zero(2)
            for part in bell_dual_partials(n):
                total = total + part
            assert total == _dual_rec(n, Y, X)


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
                total = total + bell_partial(n, k)
            assert total == pbw_rewrite(bell_word(n))

    def test_bad_filter_side(self):
        with pytest.raises(ValueError):
            sh_filter((1, 1), "sideways")
