from math import comb

import pytest

from ncbinom.freepoly import FreePoly
from ncbinom.qsigma import (AdSigma, Endomorphism, GenDerivation, GradingSigma,
                            IdentityOp, LeftMul, NotASigmaDerivation,
                            NotUnital, bell_compare_sigma_id, binomial_q_verify,
                            check_sigma_derivation, d_m_factorization_check,
                            identity_endomorphism, ore_binomial, qbell,
                            qbell_at_one, qbell_partial, qbell_partial_alt,
                            sh_hat_apply, theorem_b_verify, y_derivative_q)
from ncbinom.bell import bell_word
from ncbinom.rings import QPoly, q_binomial

X = FreePoly.letter(1, 2)
Y = FreePoly.letter(2, 2)
Q = QPoly.q()


class TestOperators:
    def test_composition_and_sum(self):
        sigma = GradingSigma(2)
        op = AdSigma(X, sigma) + LeftMul(Y)
        f = X * Y
        assert op(f) == X * (X * Y) - sigma(f) * X + Y * (X * Y)

    def test_power(self):
        sigma = GradingSigma(2)
        assert sigma.power(2)(X) == FreePoly({(1,): QPoly.q(2)}, 2)
        assert sigma.power(0)(X) == X

    def test_identity(self):
        assert IdentityOp()(X * Y - Y) == X * Y - Y

    def test_endomorphism_is_multiplicative(self):
        phi = Endomorphism({1: X + Y, 2: Y * Y}, 2)
        u, v = X * Y, Y * X
        assert phi(u * v) == phi(u) * phi(v)
        assert identity_endomorphism(2)(u) == u

    def test_not_unital_rejected(self):
        with pytest.raises(NotUnital):
            Endomorphism({1: X, 2: Y}, 2, unit_image=FreePoly.zero(2))

    def test_ad_sigma_is_sigma_derivation(self):
        sigma = GradingSigma(2)
        check_sigma_derivation(AdSigma(X, sigma), sigma)

    def test_gen_derivation_leibniz(self):
        sigma = GradingSigma(2)
        delta = GenDerivation({1: FreePoly.unit(2), 2: X}, sigma, 2)
        check_sigma_derivation(delta, sigma)

    def test_left_mul_not_a_derivation(self):
        sigma = IdentityOp()
        with pytest.raises(NotASigmaDerivation):
            check_sigma_derivation(LeftMul(Y), sigma)


class TestOperatorShufflePolys:
    def test_sigma_identity_reduces_to_bell(self):
        for n in range(6):
            assert bell_compare_sigma_id(n)

    def test_binomial_expansion_both_sigmas(self):
        for n in range(6):
            assert theorem_b_verify(n, IdentityOp())
            assert theorem_b_verify(n, GradingSigma(2))

    def test_base_cases(self):
        sigma = GradingSigma(2)
        assert sh_hat_apply(0, 0, X, Y, sigma) == FreePoly.unit(2)
        assert sh_hat_apply(0, 3, X, Y, sigma) == FreePoly.unit(2)
        assert sh_hat_apply(1, 0, X, Y, sigma) == qbell(1)

    def test_shifted_step_factorization(self):
        for sigma in (IdentityOp(), GradingSigma(2)):
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
        sigma = GradingSigma(2)
        delta = AdSigma(X, sigma)
        for n in range(5):
            coeffs = ore_binomial(n, sigma, delta)
            for k, c in enumerate(coeffs):
                assert c == sh_hat_apply(k, n - k, X, Y, sigma)

    def test_sigma_identity_gives_bell_polynomials(self):
        # sigma = id, delta = ad x: coefficient k is C(n,k) (ad x + y)^k (1)
        for n in range(7):
            coeffs = ore_binomial(n, IdentityOp(), AdSigma(X, IdentityOp()))
            assert coeffs == [bell_word(k).scale(comb(n, k)) for k in range(n + 1)]

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ore_binomial(-1, IdentityOp(), AdSigma(X, IdentityOp()))
        for k, j in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError):
                sh_hat_apply(k, j, X, Y, IdentityOp())

    def test_rejects_non_derivation(self):
        with pytest.raises(NotASigmaDerivation):
            ore_binomial(3, IdentityOp(), LeftMul(Y))

    def test_zero_delta_gives_q_binomials(self):
        # xy = q yx exactly: coefficient of slot k is binom(n,k)_q y^k
        sigma = GradingSigma(2)

        class ZeroOp(LeftMul):
            def __init__(self):
                super().__init__(FreePoly.zero(2))

        for n in range(6):
            coeffs = ore_binomial(n, sigma, ZeroOp())
            for k, c in enumerate(coeffs):
                want = (Y ** k).map_coeffs(lambda x, b=q_binomial(n, k): b * x)
                assert c == want
