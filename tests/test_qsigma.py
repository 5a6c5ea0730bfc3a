import gc
import itertools
from math import comb

import pytest

from ncbinom.freepoly import FreePoly
from ncbinom import qsigma
from ncbinom.qsigma import (NotASigmaDerivation, ad_sigma, at_q_one, bell_partials,
                            binomial_q_verify, check_sigma_derivation, d_m_sums,
                            endomorphism, gen_derivation, grading_sigma, identity,
                            ore_binomial, ore_closed, qbell, qbell_at_one,
                            qbell_closed, qbell_partial_alt, sh_hat_apply, sh_hat_triangle,
                            step, y_derivative_q)
from ncbinom.bell import bell_word
from ncbinom.rings import QPoly, q_binomial
from ncbinom.verify import run_suite

X = FreePoly.letter(1, 2)
Y = FreePoly.letter(2, 2)
Q = QPoly.q()


def left_mul_y(f):
    return Y * f


def image_by_letters(images, w):
    """Oracle: the image of the word w as the product of its letters' images."""
    img = FreePoly.unit(2)
    for x in w:
        img = img * images[x]
    return img


class TestOperators:
    def test_step(self):
        op = step(ad_sigma(X, grading_sigma), Y)
        f = X * Y
        assert op(f) == X * (X * Y) - grading_sigma(f) * X + Y * (X * Y)

    def test_power(self):
        assert grading_sigma(grading_sigma(X)) == FreePoly({(1,): QPoly.q(2)}, 2)
        assert grading_sigma(FreePoly.unit(2)) == FreePoly.unit(2)

    def test_identity(self):
        assert identity(X * Y - Y) == X * Y - Y

    def test_endomorphism_is_multiplicative(self):
        phi = endomorphism({1: X + Y, 2: Y * Y})
        u, v = X * Y, Y * X
        assert phi(u * v) == phi(u) * phi(v)
        assert endomorphism({1: X, 2: Y})(u) == u

    @pytest.mark.parametrize("images", [
        {1: Y, 2: X},                                     # the swap
        {1: X + Y, 2: Y},                                 # the shear x -> x + y
        {1: X * Y - Y.scale(2), 2: X.scale(Q) + FreePoly.unit(2)},  # not words
    ])
    def test_memoised_endomorphism_equals_letter_by_letter_product(self, images):
        phi = endomorphism(images)
        words = [w for n in range(6) for w in itertools.product((1, 2), repeat=n)]
        for w in words + words[::-1]:  # the second pass reads the memo
            assert phi(FreePoly.word(w, 2)) == image_by_letters(images, w), w
        f = FreePoly({(): 3, (2, 1): -1, (1, 1, 2): Q}, 2)
        assert phi(f) == (phi(FreePoly.unit(2)).scale(3) - phi(FreePoly.word((2, 1), 2))
                          + phi(FreePoly.word((1, 1, 2), 2)).scale(Q))

    def test_endomorphisms_share_no_memo_entries(self):
        swap_images, shear_images = {1: Y, 2: X}, {1: X + Y, 2: Y}
        swap, shear = endomorphism(swap_images), endomorphism(shear_images)
        for n in range(5):
            for w in itertools.product((1, 2), repeat=n):
                u = FreePoly.word(w, 2)
                assert swap(u) == image_by_letters(swap_images, w), w
                assert shear(u) == image_by_letters(shear_images, w), w
                assert swap(u) == image_by_letters(swap_images, w), w

    def test_endomorphism_leaves_no_reference_cycle(self):
        # the memo is filled by a module function, not by a closure that
        # calls itself, so an endomorphism and its memo are freed at once
        f = (X + Y) ** 4
        gc.collect()
        gc.disable()
        try:
            assert endomorphism({1: Y, 2: X + Y})(f) == (X + Y + Y) ** 4
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_generator_images_are_read_eagerly(self):
        for build in (endomorphism, lambda images: gen_derivation(images, identity)):
            with pytest.raises(KeyError):
                build({1: X})

    def test_ad_sigma_is_sigma_derivation(self):
        check_sigma_derivation(ad_sigma(X, grading_sigma), grading_sigma)

    def test_gen_derivation_leibniz(self):
        delta = gen_derivation({1: FreePoly.unit(2), 2: X}, grading_sigma)
        check_sigma_derivation(delta, grading_sigma)
        # delta(xy) = delta(x) y + sigma(x) delta(y) = y + q x x
        assert delta(X * Y) == Y + (X * X).map_coeffs(lambda c: Q * c)

    def test_left_mul_not_a_derivation(self):
        with pytest.raises(NotASigmaDerivation):
            check_sigma_derivation(left_mul_y, identity)


SEEDS = (FreePoly.unit(2), X, Y, X * Y + Y * X)
# Under id and the grading every shifted step D_t is a multiple of D_0, so
# the D_t commute; the shear x -> x + y makes the order of D_m products seen.
SIGMAS = (identity, grading_sigma, endomorphism({1: X + Y, 2: Y}))


def d_m_sum_by_tuples(j, k, sigma, f):
    """sum over 0<=m_1<=...<=m_k<=j of D_{m_1}...D_{m_k} sigma^j(f), one
    index tuple at a time: the enumeration d_m_sums replaces with a DP."""
    ds, xm, ym = [], X, Y
    for _ in range(j + 1):
        ds.append(step(ad_sigma(xm, sigma), ym))
        xm, ym = sigma(xm), sigma(ym)
    g0 = f
    for _ in range(j):
        g0 = sigma(g0)
    out = FreePoly.zero(2)
    for ms in itertools.combinations_with_replacement(range(j + 1), k):
        g = g0
        for m in reversed(ms):
            g = ds[m](g)
        out = out + g
    return out


class TestOperatorShufflePolys:
    def test_sigma_identity_reduces_to_bell(self):
        rows = sh_hat_triangle(5, identity, FreePoly.unit(2))
        for n in range(6):
            assert ([rows[k][n - k] for k in range(n + 1)]
                    == [bell_word(k).scale(comb(n, k)) for k in range(n + 1)])

    def test_binomial_expansion_both_sigmas(self):
        for sigma in (identity, grading_sigma):
            rows = sh_hat_triangle(5, sigma, FreePoly.unit(2))
            for n in range(6):
                total = FreePoly.zero(2)
                for k in range(n + 1):
                    total = total + rows[k][n - k] * X ** (n - k)
                assert total == (X + Y) ** n

    def test_base_cases(self):
        sigma = grading_sigma
        assert sh_hat_apply(0, 0, X, Y, sigma) == FreePoly.unit(2)
        assert sh_hat_apply(0, 3, X, Y, sigma) == FreePoly.unit(2)
        assert sh_hat_apply(1, 0, X, Y, sigma) == qbell(1)

    def test_triangle_entries_equal_the_rectangle(self):
        for sigma in SIGMAS:
            for f in SEEDS:
                rows = sh_hat_triangle(4, sigma, f)
                assert [len(row) for row in rows] == [5, 4, 3, 2, 1]
                for k, row in enumerate(rows):
                    for j, value in enumerate(row):
                        assert value == sh_hat_apply(k, j, X, Y, sigma, f)

    def test_shifted_step_factorization(self):
        # SH-hat_{k,j} = sum of D_{m_1}...D_{m_k} sigma^j, on every seed
        for sigma in SIGMAS:
            for f in SEEDS:
                rows = sh_hat_triangle(5, sigma, f)
                for j in range(6):
                    sums = d_m_sums(j, 5 - j, sigma, f)
                    assert len(sums) == 6 - j
                    for k, value in enumerate(sums):
                        assert value == rows[k][j]

    def test_d_m_sums_equal_the_tuple_enumeration(self):
        for sigma in SIGMAS:
            for f in SEEDS:
                for j in range(6):
                    sums = d_m_sums(j, 5 - j, sigma, f)
                    for k, value in enumerate(sums):
                        assert value == d_m_sum_by_tuples(j, k, sigma, f), (j, k)

    def test_degree_zero_triangle_is_the_seed(self):
        for sigma in SIGMAS:
            for f in SEEDS:
                assert sh_hat_triangle(0, sigma, f) == [[f]]

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            sh_hat_triangle(-1, identity, FreePoly.unit(2))
        for j, kmax in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError):
                d_m_sums(j, kmax, identity, FreePoly.unit(2))


def _bump(bumps):
    """Wrappers of sh_hat_triangle and d_m_sums that add bumps[(k, j)] to the
    entry SH-hat_{k,j}(1) for sigma = id: the same fault in both routes."""
    triangle, sums = qsigma.sh_hat_triangle, qsigma.d_m_sums

    def bumped_triangle(max_n, sigma, seed):
        rows = triangle(max_n, sigma, seed)
        if sigma is identity and seed == FreePoly.unit(2):
            for (k, j), delta in bumps.items():
                rows[k][j] = rows[k][j] + delta
        return rows

    def bumped_sums(j, kmax, sigma, f):
        out = sums(j, kmax, sigma, f)
        if sigma is identity and f == FreePoly.unit(2):
            for (k, jj), delta in bumps.items():
                if jj == j and k <= kmax:
                    out[k] = out[k] + delta
        return out
    return bumped_triangle, bumped_sums


class TestTheoremBSuite:
    def test_passes(self):
        assert run_suite("theorem-b", 4) == (True, "n <= 4, sigmas id, grading and swap")

    def test_forwards_d_m_order_fails(self, monkeypatch):
        # d_m_sums with its t loop run forwards sums D_{m_1}...D_{m_k} over
        # m_1 >= ... >= m_k; only the swap tells the two orders apart
        monkeypatch.setattr(qsigma, "reversed", list, raising=False)
        assert run_suite("theorem-b", 4) == (False, "D_m factorization failed at (3,2,swap)")

    def test_wrong_triangle_entry_fails(self, monkeypatch):
        monkeypatch.setattr(qsigma, "sh_hat_triangle", _bump({(2, 1): X})[0])
        assert run_suite("theorem-b", 4) == (False, "D_m factorization failed at (3,2,id)")

    def test_wrong_top_corner_fails(self, monkeypatch):
        # SH-hat_{0,4} feeds no other entry; only the comparison sees it
        monkeypatch.setattr(qsigma, "sh_hat_triangle", _bump({(0, 4): Y})[0])
        assert run_suite("theorem-b", 4) == (False, "D_m factorization failed at (4,0,id)")

    def test_wrong_d_m_sum_fails(self, monkeypatch):
        monkeypatch.setattr(qsigma, "d_m_sums", _bump({(1, 2): Y})[1])
        assert run_suite("theorem-b", 4) == (False, "D_m factorization failed at (3,1,id)")

    def test_binomial_check_is_live(self, monkeypatch):
        # both routes agree on the fault, so only (x+y)^n can catch it
        triangle, sums = _bump({(1, 1): Y})
        monkeypatch.setattr(qsigma, "sh_hat_triangle", triangle)
        monkeypatch.setattr(qsigma, "d_m_sums", sums)
        assert run_suite("theorem-b", 4) == (False, "failed at n=2, sigma=id")

    def test_bell_reduction_check_is_live(self, monkeypatch):
        # y on SH-hat_{1,1} and -yx on SH-hat_{2,0} leave (x+y)^2 intact
        triangle, sums = _bump({(1, 1): Y, (2, 0): -(Y * X)})
        monkeypatch.setattr(qsigma, "sh_hat_triangle", triangle)
        monkeypatch.setattr(qsigma, "d_m_sums", sums)
        assert run_suite("theorem-b", 4) == (False, "binomial-count reduction failed at n=2")

    @pytest.mark.parametrize("name, entry", [("sh_hat_triangle", "rows[2][1]"),
                                             ("d_m_sums", "rows[2]")])
    def test_planted_fault_fails_verify_under_O(self, verify_under_O, name, entry):
        done = verify_under_O("theorem-b", (
            "from ncbinom import qsigma\n"
            f"original = qsigma.{name}\n"
            "def bumped(*args):\n"
            "    rows = original(*args)\n"
            "    if len(rows) > 2:\n"
            f"        {entry} = {entry} + qsigma._X\n"
            "    return rows\n"
            f"qsigma.{name} = bumped\n"))
        assert done.returncode == 1, done.stderr.decode()
        assert done.stdout.startswith(b"theorem-b: FAIL (D_m factorization failed at")

    def test_forwards_d_m_order_fails_verify_under_O(self, verify_under_O):
        done = verify_under_O("theorem-b", "from ncbinom import qsigma\nqsigma.reversed = list\n")
        assert done.returncode == 1, done.stderr.decode()
        assert done.stdout == b"theorem-b: FAIL (D_m factorization failed at (3,2,swap))\n"


class TestQBell:
    def test_small_values(self):
        assert qbell(0) == FreePoly.unit(2)
        assert qbell(1) == Y
        # (ad_q x + y)(y) = y^2 + xy - q yx
        want = Y * Y + X * Y - (Y * X).map_coeffs(lambda c: Q * c)
        assert qbell(2) == want

    def test_partial_edge_cases(self):
        assert bell_partials(0, grading_sigma) == (FreePoly.unit(2),)
        assert bell_partials(3, grading_sigma)[0] == FreePoly.zero(2)
        assert bell_partials(3, grading_sigma)[3] == Y ** 3
        for negative in (lambda: bell_partials(-1, grading_sigma), lambda: qbell(-1),
                         lambda: y_derivative_q(-1), lambda: qbell_at_one(-1)):
            with pytest.raises(ValueError, match="negative index"):
                negative()

    def test_partial_small_values(self):
        # B_q(2,1) = ad_q x (y) = xy - q yx
        assert bell_partials(2, grading_sigma)[1] == X * Y - (Y * X).map_coeffs(lambda c: Q * c)

    def test_partials_sum_to_full(self):
        for n in range(7):
            total = FreePoly.zero(2)
            for part in bell_partials(n, grading_sigma):
                total = total + part
            assert total == qbell(n)

    def test_partial_homogeneity(self):
        for n in range(6):
            for k, part in enumerate(bell_partials(n, grading_sigma)):
                for w in part.terms:
                    assert sum(1 for a in w if a == 2) == k
                    assert len(w) == n

    def test_alt_recursion_agrees(self):
        for n in range(7):
            for k, part in enumerate(bell_partials(n, grading_sigma)):
                assert qbell_partial_alt(n, k) == part

    def test_q_one_partials_are_the_bell_partials(self):
        for n in range(6):
            at_one = [p.map_coeffs(lambda c: c(1) if isinstance(c, QPoly) else c)
                      for p in bell_partials(n, grading_sigma)]
            assert at_one == list(bell_partials(n))

    def test_verify_qbell_sees_a_wrong_partial(self, monkeypatch):
        partials = qsigma.bell_partials

        def bumped(n, sigma=identity):
            parts = partials(n, sigma)
            return parts[:1] + (parts[1] + Y ** n,) + parts[2:] if n == 3 else parts
        monkeypatch.setattr(qsigma, "bell_partials", bumped)
        assert run_suite("qbell", 4) == (False, "alternative recursion mismatch at (3,1)")

    def test_q_binomial_expansion(self):
        for n in range(7):
            assert binomial_q_verify(n)

    def test_q_one_specialization(self):
        for n in range(6):
            assert qbell_at_one(n) == bell_word(n)

    def test_y_derivatives(self):
        assert y_derivative_q(0) == Y
        assert y_derivative_q(1) == X * Y - (Y * X).map_coeffs(lambda c: Q * c)


# faulty bodies of qsigma._qbell_coeff for b >= 1, each one slip in
# c_b = (-1)^b q^{b(b+1)/2} [n-1, b]_q
COEFF_FAULTS = {
    "upper index n": ("c = q_binomial(n, b).shift(b * (b + 1) // 2)\n"
                      "    return -c if b % 2 else c"),
    "no sign": "return q_binomial(n - 1, b).shift(b * (b + 1) // 2)",
    "q^{b(b-1)/2}": ("c = q_binomial(n - 1, b).shift(b * (b - 1) // 2)\n"
                     "    return -c if b % 2 else c"),
}


def faulty_coeff_source(fault):
    return ("def faulty(n, b):\n"
            "    if b == 0:\n"
            "        return 1\n"
            f"    {COEFF_FAULTS[fault]}\n")


class TestClosedForm:
    def test_equals_the_step_recursion(self):
        for n in range(11):
            assert qbell_closed(n).poly() == qbell(n), n

    def test_partials_equal_the_q_triangle_and_at_one_the_bell_partials(self):
        for n in range(10):
            q_parts, parts = bell_partials(n, grading_sigma), bell_partials(n)
            for k in range(n + 1):
                closed = qbell_closed(n, k).poly()
                assert closed == q_parts[k], (n, k)
                assert at_q_one(closed) == parts[k], (n, k)

    @pytest.mark.parametrize("sigma", [identity, grading_sigma])
    def test_builtin_ore_pairs_equal_ore_binomial(self, sigma):
        for n in range(8):
            closed = [block.poly() for block in ore_closed(n, sigma)]
            assert closed == ore_binomial(n, sigma, ad_sigma(X, sigma)), n

    def test_words_share_n_coefficients(self):
        # 2^n - 1 words, every word with a y, and one coefficient object per b
        for n in range(1, 9):
            terms = qbell_closed(n).poly().terms
            assert len(terms) == 2 ** n - 1
            assert len({id(c) for c in terms.values()}) == n

    def test_edge_cases(self):
        assert qbell_closed(0).poly() == qbell_closed(0, 0).poly() == FreePoly.unit(2)
        for n, k in ((3, 0), (3, 4), (0, 1)):
            assert qbell_closed(n, k).poly() == FreePoly.zero(2), (n, k)
        for bad in (lambda: qbell_closed(-1), lambda: qbell_closed(3, -1),
                    lambda: qbell_closed(-1, 0)):
            with pytest.raises(ValueError, match="negative index"):
                bad()
        with pytest.raises(ValueError, match="negative power"):
            ore_closed(-1, identity)
        with pytest.raises(ValueError):
            ore_closed(2, endomorphism({1: Y, 2: X}))

    def test_integer_coefficients_where_sigma_never_acts(self):
        # the JSON ring tag reads the coefficient types: int on the words
        # P y and on [n,n]_q B_q(n) at b = 0, q-polynomials elsewhere
        assert type(qbell_closed(3).poly().coeff((1, 1, 2))) is int
        assert type(qbell_closed(3).poly().coeff((1, 2, 1))) is QPoly
        grading = [block.poly() for block in ore_closed(2, grading_sigma)]
        assert type(grading[0].coeff(())) is QPoly
        assert type(grading[2].coeff((1, 2))) is int
        assert all(type(c) is int for p in ore_closed(5, identity) for _, c in p.walk())

    @pytest.mark.parametrize("fault", sorted(COEFF_FAULTS))
    def test_planted_coefficient_fault_fails_verify(self, monkeypatch, fault):
        scope = {"q_binomial": q_binomial}
        exec(faulty_coeff_source(fault), scope)
        monkeypatch.setattr(qsigma, "_qbell_coeff", scope["faulty"])
        assert run_suite("qbell", 4) == (False, "closed q-Bell form mismatch at n=2")

    @pytest.mark.parametrize("fault", sorted(COEFF_FAULTS))
    def test_planted_coefficient_fault_fails_verify_under_O(self, verify_under_O, fault):
        done = verify_under_O("qbell", ("from ncbinom import qsigma\n"
                                        "from ncbinom.rings import q_binomial\n"
                                        + faulty_coeff_source(fault)
                                        + "qsigma._qbell_coeff = faulty\n"))
        assert done.returncode == 1, done.stderr.decode()
        assert done.stdout == b"qbell: FAIL (closed q-Bell form mismatch at n=2)\n"

    def test_verify_qbell_sees_a_wrong_closed_partial(self, monkeypatch):
        closed = qsigma.qbell_closed
        # every coefficient of B_q(n,2) one too large
        monkeypatch.setattr(qsigma, "qbell_closed", lambda n, k=None: (
            closed(n, k).map_coeffs(lambda c: c + 1) if k == 2 else closed(n, k)))
        assert run_suite("qbell", 4) == (False, "closed partial mismatch at (2,2)")

    @pytest.mark.parametrize("name, sigma", [("id", identity), ("grading", grading_sigma)])
    def test_verify_qbell_sees_a_wrong_ore_coefficient(self, monkeypatch, name, sigma):
        closed = qsigma.ore_closed

        def bumped(n, s):
            # every coefficient of the x^0 block one too large
            blocks = list(closed(n, s))
            if s is sigma:
                blocks[-1] = blocks[-1].map_coeffs(lambda c: c + 1)
            return blocks
        monkeypatch.setattr(qsigma, "ore_closed", bumped)
        assert run_suite("qbell", 4) == (
            False, f"closed Ore coefficients mismatch at n=4, sigma={name}")


# B_q(n) planted with a fault only from n = 8 on, past the n <= 6 that the
# recursions check, so only the check at the printed degree can see it:
# (the qsigma name replaced, the source of its replacement, the FAIL detail)
IMAGE_FAULTS = {
    "c_1 with its sign flipped": (
        "_qbell_coeff",
        "coeff = qsigma._qbell_coeff\n"
        "def planted(n, b):\n"
        "    c = coeff(n, b)\n"
        "    return -c if n >= 8 and b == 1 else c\n",
        "commutative image of B_q(8) mismatch"),
    "one word dropped": (
        "qbell_closed",
        "from itertools import islice\n"
        "from ncbinom.freepoly import WordStream\n"
        "closed = qsigma.qbell_closed\n"
        "def planted(n, k=None):\n"
        "    s = closed(n, k)\n"
        "    if n < 8:\n"
        "        return s\n"
        "    return WordStream(2, s.coeffs, lambda: islice(s.index(), 1, None))\n",
        "254 words in B_q(8), not 255"),
}


def count_terms(stream):
    """The terms a stream yields, counted off its walk; no dict is built."""
    return sum(1 for _ in stream.walk())


class TestStreams:
    def test_qbell_term_counts_are_the_closed_counts(self):
        for n in range(17):
            assert count_terms(qbell_closed(n)) == max(2 ** n - 1, 1), n
            assert count_terms(qbell_closed(n, 0)) == (n == 0), n
            for k in range(1, n + 2):
                assert count_terms(qbell_closed(n, k)) == comb(n, k), (n, k)

    def test_ore_block_term_counts_are_the_closed_counts(self):
        # the block of x^{n-k} is [n,k]_q B_q(k): 2^k - 1 words, 1 at k = 0
        for sigma in (identity, grading_sigma):
            counts = [count_terms(block) for block in ore_closed(16, sigma)]
            assert counts == [1] + [2 ** k - 1 for k in range(1, 17)]

    def test_ore_blocks_are_built_one_at_a_time(self):
        blocks = ore_closed(3, grading_sigma)
        assert not isinstance(blocks, list)
        assert [block.poly() for block in blocks] == ore_binomial(
            3, grading_sigma, ad_sigma(X, grading_sigma))
        assert list(blocks) == []

    def test_words_come_in_key_order(self):
        for stream in (qbell_closed(9), qbell_closed(9, 4), *ore_closed(6, grading_sigma)):
            words = [factors for factors, _ in stream.walk()]
            assert words == sorted(words)

    def test_ring_is_declared_from_the_coefficients_a_stream_yields(self):
        # b <= n - k: B_q(3,3) = yyy has only c_0 = 1, B_q(3,4) nothing
        assert [qbell_closed(n, k).ring for n, k in ((1, None), (3, 3), (3, 4), (3, 0))] == \
            ["Q"] * 4
        assert qbell_closed(2).ring == qbell_closed(3, 2).ring == "Q[q]"
        assert [block.ring for block in ore_closed(2, grading_sigma)] == ["Q[q]"] * 3
        assert [block.ring for block in ore_closed(1, grading_sigma)] == ["Q[q]", "Q"]
        assert {block.ring for block in ore_closed(4, identity)} == {"Q"}

    @pytest.mark.parametrize("fault", sorted(IMAGE_FAULTS))
    def test_verify_qbell_sees_a_fault_at_the_printed_degree(self, monkeypatch, fault):
        name, source, detail = IMAGE_FAULTS[fault]
        scope = {"qsigma": qsigma}
        exec(source, scope)
        monkeypatch.setattr(qsigma, name, scope["planted"])
        assert run_suite("qbell", 7) == (True, "n <= 6, commutative image at n = 7")
        assert run_suite("qbell", 8) == (False, detail)

    @pytest.mark.parametrize("fault", sorted(IMAGE_FAULTS))
    def test_verify_qbell_sees_a_fault_at_the_printed_degree_under_O(self, verify_under_O,
                                                                      fault):
        name, source, detail = IMAGE_FAULTS[fault]
        done = verify_under_O("qbell", f"from ncbinom import qsigma\n{source}"
                                       f"qsigma.{name} = planted\n", "--max-degree", "8")
        assert done.returncode == 1, done.stderr.decode()
        assert done.stdout == f"qbell: FAIL ({detail})\n".encode()

    def test_verify_qbell_names_the_degree_of_its_image_check(self):
        assert run_suite("qbell", 0) == (True, "n <= 0, commutative image at n = 1")
        assert run_suite("qbell", 12) == (True, "n <= 6, commutative image at n = 12")


class TestOre:
    def test_recovers_operator_coefficients(self):
        # with delta = ad_sigma(x) the Ore expansion coefficients are the
        # operator shuffle polynomial values
        sigma = grading_sigma
        delta = ad_sigma(X, sigma)
        for n in range(5):
            coeffs = ore_binomial(n, sigma, delta)
            for k, c in enumerate(coeffs):
                assert c == sh_hat_apply(k, n - k, X, Y, sigma)

    def test_sigma_identity_gives_bell_polynomials(self):
        # sigma = id, delta = ad x: coefficient k is C(n,k) (ad x + y)^k (1)
        for n in range(7):
            coeffs = ore_binomial(n, identity, ad_sigma(X, identity))
            assert coeffs == [bell_word(k).scale(comb(n, k)) for k in range(n + 1)]

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ore_binomial(-1, identity, ad_sigma(X, identity))
        for k, j in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError):
                sh_hat_apply(k, j, X, Y, identity)

    def test_rejects_non_derivation(self):
        with pytest.raises(NotASigmaDerivation):
            ore_binomial(3, identity, left_mul_y)

    def test_zero_delta_gives_q_binomials(self):
        # xy = q yx exactly: coefficient of slot k is binom(n,k)_q y^k
        for n in range(6):
            coeffs = ore_binomial(n, grading_sigma, lambda f: FreePoly.zero(2))
            for k, c in enumerate(coeffs):
                want = (Y ** k).map_coeffs(lambda x, b=q_binomial(n, k): b * x)
                assert c == want
