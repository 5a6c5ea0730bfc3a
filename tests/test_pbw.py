import gc
import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial, prod
from pathlib import Path
import warnings

import pytest

import ncbinom
from ncbinom import cli, pbw, verify
from ncbinom.freepoly import FreePoly, commutator
from ncbinom.pbw import (InvariantError, OrderViolation, PBWPoly,
                         UnsupportedRing, commutator_ls,
                         enumerate_pbw_monomials, ls_basis_element,
                         monomial_from_word, monomial_word, pbw_expand,
                         pbw_expand_monomial, pbw_rewrite, validate_monomial)
from ncbinom.rings import ModInt
from ncbinom.words import (is_lyndon, lyndon_enumerate, multidegree,
                           standard_factorization)


class TestBasisElements:
    def test_letters_and_small_brackets(self):
        x = FreePoly.letter(1)
        y = FreePoly.letter(2)
        assert ls_basis_element((1,)) == x
        assert ls_basis_element((1, 2)) == commutator(x, y)
        assert ls_basis_element((1, 1, 2)) == commutator(x, commutator(x, y))
        assert ls_basis_element((1, 2, 2)) == commutator(commutator(x, y), y)

    def test_leading_word_has_coefficient_one(self):
        for alpha in lyndon_enumerate(2, 7):
            e = ls_basis_element(alpha)
            assert e.coeff(alpha) == 1
            # every word appearing is a rearrangement of alpha
            for w in e.terms:
                assert sorted(w) == sorted(alpha)
                assert w >= alpha

    def test_non_lyndon_rejected(self):
        with pytest.raises(ValueError):
            ls_basis_element((2, 1))


class TestMonomials:
    def test_from_word(self):
        assert monomial_from_word((2, 2, 1, 2, 1)) == (((2,), 2), ((1, 2), 1), ((1,), 1))
        assert monomial_from_word(()) == ()

    def test_validate(self):
        validate_monomial((((2,), 1), ((1,), 3)))
        with pytest.raises(OrderViolation):
            validate_monomial((((1,), 1), ((2,), 1)))  # increasing
        with pytest.raises(OrderViolation):
            validate_monomial((((2,), 1), ((2,), 1)))  # repeated factor
        with pytest.raises(ValueError):
            validate_monomial((((2, 1), 1),))  # non-Lyndon factor

    def test_enumerate_by_multidegree(self):
        monos = enumerate_pbw_monomials((1, 1))
        assert set(monos) == {(((2,), 1), ((1,), 1)), (((1, 2), 1),)}
        # counting check: PBW monomials of a multidegree biject with the
        # words of that multidegree, so there are multinomially many
        for m in (2, 3):
            for counts in _contents(m, 8):
                want = factorial(sum(counts)) // prod(factorial(c) for c in counts)
                assert len(enumerate_pbw_monomials(counts)) == want

    def test_enumerate_matches_lyndon_recursion(self):
        # same monomials in the same order as a search over Lyndon factors
        # (verify draws from the list with rng.choice)
        for m, max_total in ((2, 7), (3, 6)):
            for counts in _contents(m, max_total):
                assert enumerate_pbw_monomials(counts) == _enumerate_by_lyndon_factors(m, counts)

    def test_enumerate_is_cfl_bijection(self):
        for m, max_total in ((2, 8), (3, 5)):
            for counts in _contents(m, max_total):
                monos = enumerate_pbw_monomials(counts)
                for mono in monos:
                    validate_monomial(mono)
                words = [monomial_word(mono) for mono in monos]
                assert len(set(words)) == len(words)
                assert set(words) == set(permutations(sum(([x] * c for x, c in
                                                            enumerate(counts, 1)), [])))

    @pytest.mark.parametrize("m, max_total", [(2, 12), (3, 7), (4, 5)])
    def test_enumerate_is_in_key_order(self, m, max_total):
        # the closed routes stream each content's list as it comes
        for counts in _contents(m, max_total):
            monos = enumerate_pbw_monomials(counts)
            assert all(a < b for a, b in zip(monos, monos[1:])), counts

    def test_enumerate_shares_each_factor_within_one_call(self):
        factors = [pair for mono in enumerate_pbw_monomials((8, 8)) for pair in mono]
        assert len({id(pair) for pair in factors}) == len(set(factors))
        # no cache outlives the call
        first, again = enumerate_pbw_monomials((1, 1)), enumerate_pbw_monomials((1, 1))
        assert first == again and first[0][0] is not again[0][0]

    def test_rewrite_shares_each_factor(self):
        p = pbw_rewrite((FreePoly.letter(1) + FreePoly.letter(2)) ** 8)
        factors = [pair for mono in p.terms for pair in mono]
        assert len({id(pair) for pair in factors}) == len(set(factors))

    def test_from_word_shares_through_the_given_dict(self):
        shared = {}
        a = monomial_from_word((2, 1, 2, 1), shared)
        b = monomial_from_word((2, 2, 1, 2, 1), shared)
        assert a == (((2,), 1), ((1, 2), 1), ((1,), 1))
        assert a[1] is b[1] and a[2] is b[2] and set(shared) == set(a) | set(b)
        assert monomial_from_word((2, 1, 2, 1))[1] is not a[1]

    def test_enumerate_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            enumerate_pbw_monomials((3, -1))
        with pytest.raises(ValueError):
            enumerate_pbw_monomials((-1, 0))


def _contents(m, max_total):
    """Every letter-count tuple over m letters with total <= max_total."""
    return [c for c in product(range(max_total + 1), repeat=m) if sum(c) <= max_total]


def _enumerate_by_lyndon_factors(m, counts):
    """Oracle: choose an exponent for each Lyndon word, in decreasing order."""
    total = sum(counts)
    lyndons = sorted((w for w in lyndon_enumerate(m, max(total, 1)) if len(w) <= total),
                     reverse=True)
    results = []

    def rec(idx, remaining, acc):
        if not any(remaining):
            results.append(tuple(acc))
            return
        if idx >= len(lyndons):
            return
        alpha = lyndons[idx]
        deg = multidegree(alpha, m)
        max_t = min(remaining[i] // deg[i] for i in range(m) if deg[i])
        rec(idx + 1, remaining, acc)
        for t in range(1, max_t + 1):
            rec(idx + 1, tuple(r - t * d for r, d in zip(remaining, deg)), acc + [(alpha, t)])

    rec(0, tuple(counts), [])
    return results


class TestRewrite:
    def test_worked_example_xy(self):
        # xy = E_12 + E_2 E_1, while yx is already a PBW monomial
        got = pbw_rewrite(FreePoly.word((1, 2)))
        want = (PBWPoly.monomial((((2,), 1), ((1,), 1)))
                + PBWPoly.monomial((((1, 2), 1),)))
        assert got == want
        assert pbw_rewrite(FreePoly.word((2, 1))) == PBWPoly.monomial(
            (((2,), 1), ((1,), 1)))

    def test_worked_example_degree_three(self):
        # y x x  =  y x^2 basis combination
        f = FreePoly.word((2, 1, 1))
        assert pbw_expand(pbw_rewrite(f)) == f

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(0, 7)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randint(1, 2) for _ in range(n))
                terms[w] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            f = FreePoly(terms, 2)
            assert pbw_expand(pbw_rewrite(f)) == f

    def test_roundtrip_ternary(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(0, 5)
            w = tuple(rng.randint(1, 3) for _ in range(n))
            f = FreePoly.word(w, m=3)
            assert pbw_expand(pbw_rewrite(f)) == f

    def test_triangularity(self):
        # rewriting a single word only produces monomials whose expansion
        # leads with a word >= the original in lex order... concretely: the
        # monomial built from the word itself appears with coefficient 1.
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 8)
            w = tuple(rng.randint(1, 2) for _ in range(n))
            got = pbw_rewrite(FreePoly.word(w))
            assert got.coeff(monomial_from_word(w)) == 1
            for mono in got.terms:
                assert monomial_multideg_eq(mono, w)


def _fraction_rewrite(f):
    """Oracle: the elimination carried out in Fraction arithmetic throughout."""
    components = {}
    for w, c in f.terms.items():
        components.setdefault(multidegree(w, f.m), {})[w] = Fraction(c)
    out = {}
    for comp in components.values():
        while comp:
            w = min(comp)
            c = comp.pop(w)
            mono = monomial_from_word(w)
            out[mono] = out.get(mono, 0) + c
            for u, a in pbw_expand_monomial(mono, f.m).terms.items():
                if u != w:
                    comp[u] = comp.get(u, Fraction(0)) - c * a
                    if comp[u] == 0:
                        del comp[u]
    return {mono: c for mono, c in out.items() if c}


def _random_free_poly(rng, m, max_len, coeff):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.randint(1, m) for _ in range(rng.randint(0, max_len)))
        terms[w] = coeff(rng)
    return FreePoly(terms, m)


_MIXED = (Fraction(1, 6), Fraction(3, 4), Fraction(-2, 5), Fraction(7, 9), 2, -3)


def _mixed(rng):
    return rng.choice(_MIXED) * rng.randint(-5, 5)


def _huge_fraction(rng):
    return Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 12))


def _huge_int(rng):
    return rng.randint(-10 ** 30, 10 ** 30)


class TestIntegerElimination:
    @pytest.mark.parametrize("m, max_len, coeff", [
        (2, 7, _mixed), (3, 5, _mixed), (2, 6, _huge_fraction), (3, 4, _huge_fraction)])
    def test_fraction_input_matches_fraction_oracle(self, m, max_len, coeff):
        rng = random.Random(31 + m)
        for _ in range(30):
            f = _random_free_poly(rng, m, max_len, coeff)
            got = pbw_rewrite(f)
            assert got.terms == _fraction_rewrite(f)
            assert pbw_expand(got) == f

    @pytest.mark.parametrize("m, max_len", [(2, 7), (3, 5)])
    def test_integer_input_stays_int(self, m, max_len):
        rng = random.Random(41 + m)
        for _ in range(30):
            f = _random_free_poly(rng, m, max_len, _huge_int)
            got = pbw_rewrite(f)
            assert got.terms == _fraction_rewrite(f)
            assert all(type(c) is int for c in got.terms.values())

    def test_integral_fractions_come_back_as_int(self):
        # a common denominator of 1 takes the integer path end to end
        f = FreePoly({(1, 2): Fraction(4, 2), (2, 1): Fraction(-3)}, 2)
        got = pbw_rewrite(f)
        assert got.terms == {(((2,), 1), ((1,), 1)): -1, (((1, 2), 1),): 2}
        assert all(type(c) is int for c in got.terms.values())

    def test_cancelling_denominators_reduce(self):
        # 1/6 * 12 + 1/3 * 21 = 1/6 E_12 + 1/2 E_2 E_1
        f = FreePoly({(1, 2): Fraction(1, 6), (2, 1): Fraction(1, 3)}, 2)
        got = pbw_rewrite(f)
        assert got.terms == {(((1, 2), 1),): Fraction(1, 6), (((2,), 1), ((1,), 1)): Fraction(1, 2)}


@lru_cache(maxsize=None)
def _bracket(alpha, m):
    """Oracle: E_alpha by plain FreePoly commutators at st(alpha)."""
    if len(alpha) == 1:
        return FreePoly.letter(alpha[0], m)
    beta, gamma = standard_factorization(alpha)
    return commutator(_bracket(beta, m), _bracket(gamma, m))


def _expand_by_brackets(p):
    """Oracle: a PBWPoly in the word basis through ``_bracket`` products."""
    out = FreePoly.zero(p.m)
    for mono, c in p.terms.items():
        term = FreePoly.unit(p.m)
        for alpha, t in mono:
            term = term * _bracket(alpha, p.m) ** t
        out = out + term.scale(c)
    return out


class TestCodedEngine:
    """The coded-word kernel against plain FreePoly arithmetic."""

    @pytest.mark.parametrize("m, max_len", [(2, 8), (3, 5)])
    def test_basis_elements_equal_bracketed_factors(self, m, max_len):
        for alpha in lyndon_enumerate(m, max_len):
            assert ls_basis_element(alpha, m) == _bracket(alpha, m), alpha

    @pytest.mark.parametrize("m, max_degree", [(2, 7), (3, 4)])
    def test_expansions_equal_products_of_powers(self, m, max_degree):
        for counts in _contents(m, max_degree):
            for mono in enumerate_pbw_monomials(counts):
                want = FreePoly.unit(m)
                for alpha, t in mono:
                    want = want * ls_basis_element(alpha, m) ** t
                assert pbw_expand_monomial(mono, m) == want, mono

    @pytest.mark.parametrize("mono, m", [
        # a one-word factor between multi-word ones
        ((((2, 3), 1), ((2,), 1), ((1, 3), 1)), 3),
        # a multi-word factor to a power, then a letter
        ((((1, 2), 3), ((1,), 1)), 2),
        # letters on both sides of a power, and several multi-word factors
        ((((3,), 2), ((2, 3), 1), ((1, 3), 2), ((1, 2), 1), ((1,), 1)), 3),
        ((((1, 2, 2), 2), ((1, 1, 2), 1)), 2),
    ])
    def test_product_engine_on_mixed_shapes(self, mono, m):
        want = FreePoly.unit(m)
        for alpha, t in mono:
            want = want * ls_basis_element(alpha, m) ** t
        assert pbw_expand_monomial(mono, m) == want
        assert pbw_rewrite(want) == PBWPoly.monomial(mono, m)
        assert pbw_rewrite(want.scale(-3)) == PBWPoly.monomial(mono, m, -3)

    def test_rewrite_caches_only_basis_codes(self):
        for info in pkgutil.iter_modules(ncbinom.__path__, "ncbinom."):
            importlib.import_module(info.name)
        caches = {id(v): v for name, mod in sys.modules.items()
                  if name == "ncbinom" or name.startswith("ncbinom.")
                  for v in vars(mod).values() if callable(getattr(v, "cache_clear", None))}
        assert pbw._basis_codes in caches.values()
        for cache in caches.values():
            cache.cache_clear()
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        pbw_rewrite((x + y) ** 8)
        filled = {f"{c.__module__}.{c.__qualname__}": c.cache_info().currsize
                  for c in caches.values() if c.cache_info().currsize}
        assert filled.keys() == {"ncbinom.pbw._basis_codes"}, filled
        assert filled["ncbinom.pbw._basis_codes"] <= len(lyndon_enumerate(2, 6)) == 23

    def test_rewrite_leaves_top_degree_basis_elements_uncached(self):
        # a Lyndon word of the input's full degree is eliminated once and one
        # of the degree below is read a few times, so only the words of
        # length <= 8 stay cached
        pbw._basis_codes.cache_clear()
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        pbw_rewrite((x + y) ** 10)
        assert pbw._basis_codes.cache_info().currsize == len(lyndon_enumerate(2, 8)) == 71
        # shortest first, so that each word's children are cached before it
        top = sorted((w for w in lyndon_enumerate(2, 10) if len(w) >= 9), key=len)
        assert sum(len(w) == 9 for w in top) == 56 and len(top) == 56 + 99
        for alpha in top:
            misses = pbw._basis_codes.cache_info().misses
            pbw._basis_codes(alpha, 2)
            assert pbw._basis_codes.cache_info().misses == misses + 1, alpha
        pbw._basis_codes.cache_clear()

    def test_rewrite_shares_equal_factors(self):
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        f = (x + y) ** 8 + (x - y) ** 5 * (x + y) + x * (y + x)
        got = pbw_rewrite(f)
        assert _expand_by_brackets(got) == f
        first = {}
        for mono in got.terms:
            for factor in mono:
                assert first.setdefault(factor, factor) is factor, factor
        assert any(len(mono) > 1 for mono in got.terms)

    def test_rewrite_of_mixed_degrees_caches_below_each_top(self):
        # components of degree 8, 6 and 2, each with its own two top lengths:
        # only words of length <= 6 are cached, and the rewrite is still the
        # expansion's inverse
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        f = (x + y) ** 8 + (x - y) ** 5 * (x + y) + x * (y + x)
        pbw._basis_codes.cache_clear()
        got = pbw_rewrite(f)
        assert pbw._basis_codes.cache_info().currsize == len(lyndon_enumerate(2, 6)) == 23
        assert pbw_expand(got) == f
        assert pbw_rewrite(pbw_expand(got)) == got
        pbw._basis_codes.cache_clear()

    def test_rewrite_leaves_no_reference_cycle(self):
        # the per-component basis lookup does not refer to itself, so one
        # rewrite leaves nothing for the cyclic collector to free
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        f = (x + y) ** 8 + (x - y) ** 5 * (x + y)
        gc.collect()
        gc.disable()
        try:
            pbw_rewrite(f)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rewrite_roundtrip_with_two_digit_letters(self):
        # m = 12: letters 10..12 are two decimal digits, the codes are base 13
        rng = random.Random(17)
        for _ in range(25):
            f = _random_free_poly(rng, 12, 4, _mixed)
            got = pbw_rewrite(f)
            for mono in got.terms:
                validate_monomial(mono)
            assert _expand_by_brackets(got) == f
        f = FreePoly({(12, 10): 1, (10, 12, 11): Fraction(2, 3)}, 12)
        assert _expand_by_brackets(pbw_rewrite(f)) == f

    def test_rewrite_of_constant_and_fraction_terms(self):
        f = FreePoly({(): Fraction(-7, 3), (2,): 3, (1, 2): Fraction(1, 2),
                      (2, 1, 1): Fraction(5, 6), (1, 2, 1, 2): Fraction(-1, 4)}, 2)
        got = pbw_rewrite(f)
        assert got.coeff(()) == Fraction(-7, 3)
        assert got.coeff((((2,), 1),)) == 3
        assert _expand_by_brackets(got) == f
        assert _expand_by_brackets(pbw_rewrite(FreePoly.unit(2, 5))) == FreePoly.unit(2, 5)

    def test_public_functions_keep_their_errors(self):
        with pytest.raises(ValueError, match="not a Lyndon word"):
            pbw_expand_monomial((((2, 1), 1),))
        with pytest.raises(ValueError, match="letter 3 outside alphabet"):
            ls_basis_element((1, 3), 2)
        with pytest.raises(ValueError, match="letter 3 outside alphabet"):
            pbw_expand_monomial((((1, 3), 1),), 2)
        for bad in (0, 3):
            with pytest.raises(ValueError, match=f"letter {bad} outside alphabet"):
                pbw_rewrite(FreePoly({(bad, 1): 1}, 2))
        assert pbw_expand_monomial((), 3) == FreePoly.unit(3)


def monomial_multideg_eq(mono, w):
    total = []
    for a, t in mono:
        total.extend(list(a) * t)
    return sorted(total) == sorted(w)


class TestCommutatorLS:
    def test_simple_cases_give_single_basis_element(self):
        # [E_a, E_b] = E_{ab} when a is a letter or st(a) ends >= b
        got = commutator_ls((1,), (2,))
        assert got == PBWPoly.monomial((((1, 2), 1),))
        got = commutator_ls((1, 2), (2,))
        assert got == PBWPoly.monomial((((1, 2, 2), 1),))

    def test_matches_free_algebra_commutator(self):
        for alpha in lyndon_enumerate(2, 4):
            for beta in lyndon_enumerate(2, 4):
                if not alpha < beta:
                    continue
                got = commutator_ls(alpha, beta)
                free = commutator(ls_basis_element(alpha), ls_basis_element(beta))
                assert pbw_expand(got) == free

    def test_result_monomials_are_single_lyndon_factors(self):
        # the commutator of two basis elements lies in the span of single
        # bracketed Lyndon words of the combined multidegree
        for alpha in lyndon_enumerate(2, 5):
            for beta in lyndon_enumerate(2, 5):
                if not alpha < beta or len(alpha) + len(beta) > 6:
                    continue
                got = commutator_ls(alpha, beta)
                for mono in got.terms:
                    assert len(mono) == 1 and mono[0][1] == 1
                    gamma = mono[0][0]
                    assert is_lyndon(gamma)

    def test_straightening_oracle(self):
        # E_x * E_b^t = sum_c C(t, c) E_b^{t-c} E_{x b^c}  for a letter x
        # preceding the Lyndon word b: verified in the free algebra.
        x = (1,)
        for beta in [(2,), (1, 2), (1, 1, 2)]:
            for t in range(5):
                lhs = ls_basis_element(x)
                eb = ls_basis_element(beta)
                for _ in range(t):
                    lhs = lhs * eb
                rhs = FreePoly.zero()
                for c in range(t + 1):
                    term = FreePoly.unit()
                    for _ in range(t - c):
                        term = term * eb
                    term = term * ls_basis_element(x + beta * c)
                    rhs = rhs + term.scale(comb(t, c))
                assert lhs == rhs

    def test_failed_postcondition_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr(pbw, "pbw_rewrite", lambda f: PBWPoly.zero(f.m))
        with pytest.raises(InvariantError, match="expected E_"):
            commutator_ls((1,), (2,))
        with pytest.raises(InvariantError, match="vanished"):
            commutator_ls((1, 1, 1, 2), (2,))

    def test_right_factor_equal_to_beta_is_the_simple_case(self, monkeypatch):
        # st(112) = (1, 12) ends in exactly beta = 12, so [E_112, E_12] must
        # be E_11212 itself; a doubled result passes the general checks and
        # only the simple case's equality catches it
        rewrite = pbw.pbw_rewrite
        monkeypatch.setattr(pbw, "pbw_rewrite", lambda f: rewrite(f).scale(2))
        with pytest.raises(InvariantError, match="expected E_"):
            commutator_ls((1, 1, 2), (1, 2))

    def test_failed_postcondition_fails_verify_under_O(self):
        # doubling the brackets of total degree >= 6 leaves the worked
        # examples (degrees 4 and 5) right, so only the postconditions of
        # commutator_ls can catch it, and they must do so under -O
        script = (
            "import runpy, sys\n"
            "from ncbinom import pbw\n"
            "rewrite = pbw.pbw_rewrite\n"
            "def doubled(f):\n"
            "    p = rewrite(f)\n"
            "    return p.scale(2) if max(map(len, f.terms)) >= 6 else p\n"
            "pbw.pbw_rewrite = doubled\n"
            "sys.argv = ['ncbinom', 'verify', 'commutators']\n"
            "runpy.run_module('ncbinom.cli', run_name='__main__')\n")
        src = str(Path(pbw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 1, done.stderr.decode()
        assert b"commutators: FAIL" in done.stdout

    def test_spread_conjecture_nonfatal(self):
        # conjectured containment for the support of [E_a, E_b]: every
        # resulting factor g satisfies ab <= g < b with the right-factor
        # chain pinched the same way. Checked, but a counterexample only
        # warns rather than fails.
        bad = []
        for alpha in lyndon_enumerate(2, 5):
            for beta in lyndon_enumerate(2, 5):
                if not alpha < beta or len(alpha) + len(beta) > 7:
                    continue
                if len(alpha) > 1 and standard_factorization(alpha)[1] >= beta:
                    continue
                if len(alpha) > 1:
                    alpha_r = standard_factorization(alpha)[1]
                else:
                    alpha_r = None
                for mono in commutator_ls(alpha, beta).terms:
                    gamma = mono[0][0]
                    ok = alpha + beta <= gamma < beta
                    if ok and alpha_r is not None and len(gamma) > 1:
                        gamma_r = standard_factorization(gamma)[1]
                        ok = alpha_r <= gamma_r < beta
                    if not ok:
                        bad.append((alpha, beta, gamma))
        if bad:
            warnings.warn(f"support containment conjecture fails: {bad[:3]}")


# E_12 = 2*12 - 21 in base-3 codes (12 -> 5, 21 -> 7)
_NON_UNIT_E12 = {5: 2, 7: -1}

# Each plant below replaces ``pbw._bracket_codes``, the one build of E_alpha,
# which the cached ``_basis_codes`` and the rewrite's uncached top lengths
# both reach.  The plants run in a fresh interpreter, or after the caches
# are cleared, so no E_alpha was built before them.

_PLANT_NON_UNIT_E12 = (
    "orig = pbw._bracket_codes\n"
    "pbw._bracket_codes = lambda alpha, m, basis: "
    f"{_NON_UNIT_E12!r} if alpha == (1, 2) else orig(alpha, m, basis)\n")

_PLANT_LOW_WORD_E11212 = (
    "orig = pbw._bracket_codes\n"
    "def planted(alpha, m, basis):\n"
    "    codes = orig(alpha, m, basis)\n"
    "    if alpha == (1, 1, 2, 1, 2):\n"
    "        codes[pbw._code((1, 1, 1, 2, 2), 2)] = 1\n"
    "    return codes\n"
    "pbw._bracket_codes = planted\n")


def _plant_child(child, codes, top):
    """A fault in a child of ``top`` only: ``top`` itself is built by the
    real build, and building it for the cache exits with code 5."""
    return ("orig = pbw._bracket_codes\n"
            "def planted(alpha, m, basis):\n"
            f"    if alpha == {top!r} and basis is pbw._basis_codes:\n"
            "        raise SystemExit(5)\n"
            f"    return {codes!r} if alpha == {child!r} else orig(alpha, m, basis)\n"
            "pbw._bracket_codes = planted\n")


# E_112 = [E_1, E_12] read with E_12 = 2*12 - 21: its least word 112 has coefficient 2
_PLANT_NON_UNIT_CHILD = _plant_child((1, 2), _NON_UNIT_E12, (1, 1, 2))
# E_11212 = [E_112, E_12] read with E_112 = 112 - 2*121 + 211 + 111 (codes
# 14, 16, 22, 13): it gains 11112, below its least word 11212
_PLANT_LOW_CHILD = _plant_child((1, 1, 2), {14: 1, 16: -2, 22: 1, 13: 1}, (1, 1, 2, 1, 2))


def _rewrite_with_planted_basis(flags, plant, word):
    """Rewrite one word in a fresh interpreter after ``plant`` has patched
    ``pbw._bracket_codes``; exit code 3 means ArithmeticError naming the word.
    The timeout fails the test if the elimination loops."""
    script = ("from ncbinom import pbw\n"
              "from ncbinom.freepoly import FreePoly\n"
              f"{plant}"
              "try:\n"
              f"    pbw.pbw_rewrite(FreePoly.word({word!r}))\n"
              "except ArithmeticError as e:\n"
              f"    raise SystemExit(3 if {str(word)!r} in str(e) else 4)\n")
    src = str(Path(pbw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, timeout=30)


def _assert_non_unit_e12_verdicts(code, out, err):
    """``verify all --max-degree 3`` with E_12 planted as 2*12 - 21: all 13
    suites report, the six that rewrite fail, and theorem-a names E_12."""
    verdicts = dict(line.split(": ", 1) for line in out.splitlines())
    assert (code, err) == (1, ""), err
    assert list(verdicts) == sorted(verify.SUITES)
    failed = sorted(name for name, v in verdicts.items() if v.startswith("FAIL ("))
    assert failed == ["blumen", "commutators", "lemma42", "pbw", "theorem-a", "theorem-c"]
    assert "(1, 2)" in verdicts["theorem-a"]


class TestErrors:
    def test_unsupported_ring(self):
        f = FreePoly({(2, 1): ModInt(1, 5)}, 2)
        with pytest.raises(UnsupportedRing):
            pbw_rewrite(f)

    def test_non_triangular_expansion_raises(self, monkeypatch):
        # E_12 planted as 2*12 - 21: its least word no longer has coefficient 1
        orig = pbw._bracket_codes

        def planted(alpha, m, basis):
            return _NON_UNIT_E12 if alpha == (1, 2) else orig(alpha, m, basis)
        monkeypatch.setattr(pbw, "_bracket_codes", planted)
        with pytest.raises(ArithmeticError, match=r"\(1, 2\)"):
            pbw_rewrite(FreePoly.word((1, 2)))

    def test_non_triangular_expansion_raises_under_O(self):
        done = _rewrite_with_planted_basis(["-O"], _PLANT_NON_UNIT_E12, (1, 2))
        assert done.returncode == 3, done.stderr.decode()

    def test_verify_reports_a_non_triangular_basis(self, monkeypatch, capsys):
        # the rewrite's ArithmeticError is the FAIL line of each suite that
        # rewrites, and the suites after it still run
        orig = pbw._bracket_codes

        def planted(alpha, m, basis):
            return _NON_UNIT_E12 if alpha == (1, 2) else orig(alpha, m, basis)
        ncbinom.clear_caches()  # so that no E_alpha predates the plant
        try:
            with monkeypatch.context() as mp:
                mp.setattr(pbw, "_bracket_codes", planted)
                code = cli.main(["verify", "all", "--max-degree", "3"])
        finally:
            ncbinom.clear_caches()  # drop what the planted basis left in them
        out, err = capsys.readouterr()
        _assert_non_unit_e12_verdicts(code, out, err)

    def test_verify_reports_a_non_triangular_basis_under_O(self, verify_under_O):
        done = verify_under_O("all", "from ncbinom import pbw\n" + _PLANT_NON_UNIT_E12,
                              "--max-degree", "3")
        _assert_non_unit_e12_verdicts(done.returncode, done.stdout.decode(),
                                      done.stderr.decode())

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_word_below_the_least_word_raises(self, flags):
        # E_11212 planted with an extra word 11122 below its least word: the
        # elimination used to swap the two words back and forth for ever
        done = _rewrite_with_planted_basis(flags, _PLANT_LOW_WORD_E11212, (1, 1, 2, 1, 2))
        assert done.returncode == 3, done.stderr.decode()

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    @pytest.mark.parametrize("plant, word", [(_PLANT_NON_UNIT_CHILD, (1, 1, 2)),
                                             (_PLANT_LOW_CHILD, (1, 1, 2, 1, 2))],
                             ids=["non-unit-child", "low-word-child"])
    def test_uncached_top_word_keeps_both_checks(self, flags, plant, word):
        # the rewritten word is Lyndon, so its E_alpha is built uncached from
        # the planted child, cached or not, and each triangularity check must
        # still fire
        done = _rewrite_with_planted_basis(flags, plant, word)
        assert done.returncode == 3, done.stderr.decode()

    def test_equality_is_by_class(self):
        # both bases key the unit by (), yet a word never equals a PBW monomial
        assert FreePoly.unit(2) != PBWPoly.monomial((), 2)
        assert PBWPoly.monomial((), 2) != FreePoly.unit(2)
        assert FreePoly.unit(2).terms == PBWPoly.monomial((), 2).terms
