from math import comb

import pytest

from ncbinom.freepoly import FreePoly
from ncbinom.qsigma import (NotASigmaDerivation, ad_sigma, bell_compare_sigma_id,
                            binomial_q_verify, check_sigma_derivation,
                            d_m_factorization_check, endomorphism, gen_derivation,
                            grading_sigma, identity, ore_binomial, qbell,
                            qbell_at_one, qbell_partial, qbell_partial_alt,
                            sh_hat_apply, step, theorem_b_verify, y_derivative_q)
from ncbinom.bell import bell_word
from ncbinom.rings import QPoly, q_binomial

X = FreePoly.letter(1, 2)
Y = FreePoly.letter(2, 2)
Q = QPoly.q()


def left_mul_y(f):
    return Y * f


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
        phi = endomorphism({1: X + Y, 2: Y * Y}, 2)
        u, v = X * Y, Y * X
        assert phi(u * v) == phi(u) * phi(v)
        assert endomorphism({1: X, 2: Y}, 2)(u) == u

    def test_generator_images_are_read_eagerly(self):
        for build in (lambda images: endomorphism(images, 2),
                      lambda images: gen_derivation(images, identity, 2)):
            with pytest.raises(KeyError):
                build({1: X})

    def test_ad_sigma_is_sigma_derivation(self):
        check_sigma_derivation(ad_sigma(X, grading_sigma), grading_sigma)

    def test_gen_derivation_leibniz(self):
        delta = gen_derivation({1: FreePoly.unit(2), 2: X}, grading_sigma, 2)
        check_sigma_derivation(delta, grading_sigma)
        # delta(xy) = delta(x) y + sigma(x) delta(y) = y + q x x
        assert delta(X * Y) == Y + (X * X).map_coeffs(lambda c: Q * c)

    def test_left_mul_not_a_derivation(self):
        with pytest.raises(NotASigmaDerivation):
            check_sigma_derivation(left_mul_y, identity)


class TestOperatorShufflePolys:
    def test_sigma_identity_reduces_to_bell(self):
        for n in range(6):
            assert bell_compare_sigma_id(n)

    def test_binomial_expansion_both_sigmas(self):
        for n in range(6):
            assert theorem_b_verify(n, identity)
            assert theorem_b_verify(n, grading_sigma)

    def test_base_cases(self):
        sigma = grading_sigma
        assert sh_hat_apply(0, 0, X, Y, sigma) == FreePoly.unit(2)
        assert sh_hat_apply(0, 3, X, Y, sigma) == FreePoly.unit(2)
        assert sh_hat_apply(1, 0, X, Y, sigma) == qbell(1)

    def test_shifted_step_factorization(self):
        for sigma in (identity, grading_sigma):
            for n in range(1, 6):
                for k in range(1, n + 1):
                    assert d_m_factorization_check(n, k, sigma)


class TestQBell:
    def test_small_values(self):
        assert qbell(0) == FreePoly.unit(2)
        assert qbell(1) == Y
        # (ad_q x + y)(y) = y^2 + xy - q yx
        want = Y * Y + X * Y - (Y * X).map_coeffs(lambda c: Q * c)
        assert qbell(2) == want

    def test_partials_sum_to_full(self):
        for n in range(7):
            total = FreePoly.zero(2)
            for k in range(n + 1):
                total = total + qbell_partial(n, k)
            assert total == qbell(n)

    def test_partial_homogeneity(self):
        for n in range(6):
            for k in range(n + 1):
                for w in qbell_partial(n, k).terms:
                    assert sum(1 for a in w if a == 2) == k
                    assert len(w) == n

    def test_alt_recursion_agrees(self):
        for n in range(7):
            for k in range(n + 1):
                assert qbell_partial_alt(n, k) == qbell_partial(n, k)

    def test_q_binomial_expansion(self):
        for n in range(7):
            assert binomial_q_verify(n)

    def test_q_one_specialization(self):
        for n in range(6):
            assert qbell_at_one(n) == bell_word(n)

    def test_y_derivatives(self):
        assert y_derivative_q(0) == Y
        assert y_derivative_q(1) == X * Y - (Y * X).map_coeffs(lambda c: Q * c)


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
