"""Cross-module identity suites: each function checks one theorem at desk
scale and returns (ok, detail) where detail counts the cases exercised.

These back the `verify` CLI subcommand; the test suite calls them too.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import comb, factorial

from . import bell, clear_caches, identities, qsigma, quotients, shuffle
from .freepoly import FreePoly
from .pbw import (PBWPoly, commutator_ls, enumerate_pbw_monomials,
                  monomial_word, pbw_expand_monomial, pbw_rewrite)
from .rings import q_binomial
from .shuffle import sh_closed_form, sh_pbw, sh_pbw_char_p, CharPViolation
from .words import lyndon_enumerate


APPENDIX = os.path.join(os.path.dirname(__file__), "data", "appendix.txt")


def verify_appendix():
    """Golden-file diff of the stored degree 5-7 shuffle tables, one table at
    a time."""
    # line i is "<n> <k>,<j>: <text>" for the i-th SH_{k,j} with n = 5, 6, 7
    # and k rising; a byte that is not UTF-8 reads as U+FFFD and fails
    with open(APPENDIX, encoding="utf-8", errors="replace") as lines:
        for i, (n, k) in enumerate([(n, k) for n in (5, 6, 7) for k in range(n + 1)], 1):
            want = f"{n} {k},{n - k}: {sh_closed_form((k, n - k), 2)}"
            if next(lines, "").rstrip("\n") != want:
                return False, f"mismatch at n={n}, SH_{{{k},{n - k}}}"
        if next(lines, None) is not None:
            return False, f"line {i + 1} is past the last table"
    return True, f"{i} tables identical"


def verify_theorem_a(max_binary: int = 8, max_ternary: int = 6):
    """Closed-form coefficients equal brute-force rewriting, two alphabets;
    so does the full expansion ``binomial_ls`` at small degree."""
    checked = 0
    for total in range(max_binary + 1):
        for i in range(total + 1):
            if sh_closed_form((i, total - i), 2) != sh_pbw((i, total - i), 2):
                return False, f"binary mismatch at ({i},{total - i})"
            checked += 1
    for total in range(max_ternary + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                counts = (a, b, total - a - b)
                if sh_closed_form(counts, 3) != sh_pbw(counts, 3):
                    return False, f"ternary mismatch at {counts}"
                checked += 1
    for m, top in ((2, min(max_binary, 6)), (3, min(max_ternary, 4))):
        step = FreePoly({(i,): 1 for i in range(1, m + 1)}, m)
        for d in range(top + 1):
            if shuffle.binomial_ls(m, d) != pbw_rewrite(step ** d):
                return False, f"binomial mismatch at m={m}, d={d}"
            checked += 1
    return True, f"{checked} multidegrees and powers"


def _random_pbw_poly(rng, max_degree, monomials: dict):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, max_degree)
        j = rng.randint(0, d)
        monos = monomials[(j, d - j)]
        if not monos:
            continue
        terms[rng.choice(monos)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return PBWPoly(terms, 2)


_SHORT_WORDS = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def _product_merge_mismatch(rng, pairs: int = 16):
    """The first pair (f, g) whose product f*g differs from the sum of a*u*g
    over the terms a*u of f, or None.  A one-term product never merges keys,
    so this checks the general product's merge of colliding words: on
    (E_1 + E_12, E_2 + E_22), where 1*22 = 12*2, and on ``pairs`` random
    pairs of three words of length 0 to 2."""
    cases = [(FreePoly({(1,): 1, (1, 2): 1}, 2), FreePoly({(2,): 1, (2, 2): 1}, 2))]
    for _ in range(pairs):
        cases.append(tuple(FreePoly(dict(zip(rng.sample(_SHORT_WORDS, 3),
                                             rng.choices((-3, -2, -1, 1, 2, 3), k=3))), 2)
                           for _ in range(2)))
    for f, g in cases:
        by_terms = FreePoly.zero(2)
        for u, a in f.terms.items():
            by_terms = by_terms + FreePoly({u: a}, 2) * g
        if f * g != by_terms:
            return f, g
    return None


def verify_pbw_roundtrip(samples: int = 500, max_degree: int = 7,
                         triangular_degree: int = 8, seed: int = 2024):
    """pbw_rewrite inverts pbw_expand; expansion is triangular; the word
    product merges the words that different term pairs give."""
    rng = random.Random(seed)
    monomials = {(j, d - j): enumerate_pbw_monomials(2, (j, d - j))
                 for d in range(max(max_degree, triangular_degree) + 1) for j in range(d + 1)}
    for _ in range(samples):
        p = _random_pbw_poly(rng, max_degree, monomials)
        if pbw_rewrite(p.expand()) != p:
            return False, f"round-trip failed on {p!r}"
    bad = _product_merge_mismatch(rng)
    if bad:
        return False, f"product merge failed on ({bad[0]}) * ({bad[1]})"
    tri = 0
    for d in range(triangular_degree + 1):
        for j in range(d + 1):
            for mono in monomials[(j, d - j)]:
                exp = pbw_expand_monomial(mono, 2)
                w = monomial_word(mono)
                if not exp.terms:
                    if mono != ():
                        return False, f"empty expansion of {mono}"
                    continue
                if min(exp.terms) != w or exp.coeff(w) != 1:
                    return False, f"triangularity failed at {mono}"
                tri += 1
    return True, f"{samples} round-trips, {tri} triangular monomials"


def verify_commutators(max_total: int = 8):
    """Worked bracket examples plus the structural bracket postconditions."""
    if commutator_ls((1, 1, 2), (2,)) != PBWPoly.monomial((((1, 1, 2, 2), 1),), 2):
        return False, "[E_112, E_2] != E_1122"
    r = commutator_ls((1, 1, 1, 2), (2,))
    if r.terms != {(((1, 1, 1, 2, 2), 1),): 1, (((1, 1, 2, 1, 2), 1),): -1}:
        return False, "[E_1112, E_2] wrong"
    r = commutator_ls((1, 1, 2, 2), (2,))
    if r.terms != {(((1, 2, 1, 2, 2), 1),): 1, (((1, 1, 2, 2, 2), 1),): 1}:
        return False, "[E_1122, E_2] wrong"
    checked = 0
    lyndons = lyndon_enumerate(2, max_total - 1)
    for alpha in lyndons:
        for beta in lyndons:
            if alpha < beta and len(alpha) + len(beta) <= max_total:
                commutator_ls(alpha, beta)  # raises InvariantError on a failed postcondition
                checked += 1
    return True, f"{checked} bracket pairs"


def verify_theorem_c(max_n: int = 7):
    """Bell partial polynomials equal boundary-filtered shuffle polynomials:
    the closed and rewrite routes through the one filter, against the Bell
    triangle and the dual recursion (k letters 1 kept), which alone see a
    fault in that filter."""
    checked = 0
    for n in range(max_n + 1):
        parts = qsigma.bell_partials(n)
        dual = bell._dual_rec(n, FreePoly.letter(2, 2), FreePoly.letter(1, 2))
        for k in range(n + 1):
            closed = bell.bell_partial(n, k)
            if closed != bell.sh_filter((k, n - k), "rightmost_not_E1"):
                return False, f"primal mismatch at ({n},{k})"
            if closed != pbw_rewrite(parts[k]):
                return False, f"primal definition mismatch at ({n},{k})"
            closed = bell.bell_dual(n, k)
            if closed != bell.sh_filter((n - k, k), "leftmost_not_E2"):
                return False, f"dual mismatch at ({n},{k})"
            word = {w: c for w, c in dual.terms.items() if w.count(1) == k}
            if closed != pbw_rewrite(FreePoly(word, 2)):
                return False, f"dual definition mismatch at ({n},{k})"
            checked += 1
    return True, f"{checked} index pairs"


def verify_lemma42(max_n: int = 7, classical_n: int = 6):
    """Both Bell binomial expansions equal (x+y)^n; classical projection."""
    step = FreePoly.letter(1, 2) + FreePoly.letter(2, 2)
    direct = FreePoly.unit(2)
    for n in range(max_n + 1):
        if bell.binomial_via_bell(n) != direct:
            return False, f"Bell binomial identity failed at n={n}"
        if bell.binomial_via_bell(n, dual=True) != direct:
            return False, f"dual Bell binomial identity failed at n={n}"
        direct = direct * step
    for n in range(classical_n + 1):
        if bell.classical_bell_project(n) != bell.classical_bell_formula(n):
            return False, f"classical Bell mismatch at n={n}"
    return True, f"n <= {max_n}, classical n <= {classical_n}"


def _theorem_b_mismatch(max_n: int, name: str, sigma, seed: FreePoly):
    """First failure on one seed, else None.  Every entry of the seed's
    SH-hat triangle (built from sigma and the unshifted step) must equal the
    D_m sum (built from the shifted steps only); the triangle of seed 1 must
    also rebuild (x+y)^n and, for sigma = id, the binomial counts of Bell."""
    rows = qsigma.sh_hat_triangle(max_n, sigma, seed)
    for j in range(max_n + 1):
        sums = qsigma.d_m_sums(j, max_n - j, sigma, seed)
        for k, value in enumerate(sums):
            if rows[k][j] != value:
                return f"D_m factorization failed at ({j + k},{k},{name})"
    if seed != FreePoly.unit(2):
        return None
    x, y = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    power = FreePoly.unit(2)
    for n in range(max_n + 1):
        total = FreePoly.zero(2)
        for k in range(n + 1):
            total = total + rows[k][n - k] * x ** (n - k)
        if total != power:
            return f"failed at n={n}, sigma={name}"
        if name == "id" and any(rows[k][n - k] != bell.bell_word(k).scale(comb(n, k))
                                for k in range(n + 1)):
            return f"binomial-count reduction failed at n={n}"
        power = power * (x + y)
    return None


def verify_theorem_b(max_n: int = 6):
    """The operator binomial formula and its D_m factorization, for sigma = id,
    the q-grading and the swap x <-> y, on the seeds 1, x, y and xy + yx: one
    SH-hat triangle per sigma and seed, one D_m sum per shift.  Under id and
    the grading every shifted step D_t is a multiple of D_0; the swap makes
    them differ, so the order of a D_m product is seen."""
    x, y = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    seeds = (FreePoly.unit(2), x, y, x * y + y * x)
    sigmas = (("id", qsigma.identity), ("grading", qsigma.grading_sigma),
              ("swap", qsigma.endomorphism({1: y, 2: x})))
    for name, sigma in sigmas:
        for seed in seeds:
            mismatch = _theorem_b_mismatch(max_n, name, sigma, seed)
            if mismatch:
                return False, mismatch
    return True, f"n <= {max_n}, sigmas id, grading and swap"


def verify_qbell(max_n: int = 6):
    """q-Bell binomial identity and the q=1 collapse to plain Bell; the closed
    word-basis form against the step recursion, the q-triangle partials and,
    at q = 1, the Bell partials; the built-in Ore pairs read off it against
    ``ore_binomial`` at n = max_n."""
    for n in range(max_n + 1):
        if not qsigma.binomial_q_verify(n):
            return False, f"q-binomial identity failed at n={n}"
        if qsigma.qbell_at_one(n) != bell.bell_word(n):
            return False, f"q=1 specialization failed at n={n}"
        if qsigma.qbell_closed(n) != qsigma.qbell(n):
            return False, f"closed q-Bell form mismatch at n={n}"
        parts = qsigma.bell_partials(n, qsigma.grading_sigma)
        for k, part in enumerate(parts):
            if part != qsigma.qbell_partial_alt(n, k):
                return False, f"alternative recursion mismatch at ({n},{k})"
            closed = qsigma.qbell_closed(n, k)
            if closed != part:
                return False, f"closed partial mismatch at ({n},{k})"
            if qsigma.at_q_one(closed) != qsigma.bell_partials(n)[k]:
                return False, f"closed partial at q=1 mismatch at ({n},{k})"
        if sum(parts, FreePoly.zero(2)) != qsigma.qbell(n):
            return False, f"partial q-Bell sum mismatch at n={n}"
    for name, sigma in (("id", qsigma.identity), ("grading", qsigma.grading_sigma)):
        delta = qsigma.ad_sigma(FreePoly.letter(1, 2), sigma)
        if qsigma.ore_closed(max_n, sigma) != qsigma.ore_binomial(max_n, sigma, delta):
            return False, f"closed Ore coefficients mismatch at n={max_n}, sigma={name}"
    return True, f"n <= {max_n}"


def verify_qcomm(max_n: int = 8):
    """q-commutative Bell: recursion route equals closed q-multinomial route,
    and the binomial closed form equals the q-binomial-weighted Bell sum."""
    pairs = 0
    for n in range(max_n + 1):
        for k in range(n + 1):
            if quotients.qcomm_bell_recursive(n, k) != quotients.qcomm_bell_closed(n, k):
                return False, f"q-commutative Bell routes disagree at (n={n}, k={k})"
            pairs += 1
    top = min(max_n, 6)
    full = [quotients.qcomm_bell_full(k) for k in range(top + 1)]
    for n in range(top + 1):
        via_bell = {(word, n - k): q_binomial(n, k) * c
                    for k in range(n + 1) for word, c in full[k].items()}
        if quotients.qcomm_binomial(n) != via_bell:
            return False, f"binomial/Bell mismatch at n={n}"
    return True, f"{pairs} (n,k) pairs"


def _weyl_mismatch(max_d: int):
    """First d <= max_d where weyl_binomial(d) disagrees with the killed free
    expansion of (E_1 + E_2)^d or with the half-h binomial formula, else None."""
    gens = [(1, 1, 2), (1, 2, 2)]
    killed = quotients.lie_ideal_closure(gens, max_d, 2)
    step = FreePoly.letter(1, 2) + FreePoly.letter(2, 2)
    power = FreePoly.unit(2)
    for d in range(max_d + 1):
        closed = quotients.weyl_binomial(d)
        if closed != quotients.kill_project(pbw_rewrite(power), killed):
            return f"Weyl closed form disagrees with killed expansion at d={d}"
        # Heisenberg-Weyl form: n!/(j! i! (n-2j-i)!) (h/2)^j y^i x^(n-2j-i)
        for j in range(d // 2 + 1):
            for i in range(d - 2 * j + 1):
                lhs = Fraction(factorial(d),
                               factorial(j) * factorial(i) * factorial(d - 2 * j - i))
                if lhs / 2 ** j != closed.coeff(quotients.weyl_monomial(i, j, d - 2 * j - i)):
                    return f"half-h translation mismatch at d={d} (j={j}, i={i})"
        power = power * step
    return None


def verify_blumen(max_n: int = 6, weyl_d: int = 8):
    """Blumen rewriting vs closed form; Weyl closed form (Blumen at q = 1) vs
    killed expansion and half-h form; the derivatives of y stop at order 2."""
    for n in range(max_n + 1):
        if quotients.blumen_binomial_rewrite(n) != quotients.blumen_binomial(n):
            return False, f"Blumen closed form disagrees with rewriting at n={n}"
    mismatch = _weyl_mismatch(weyl_d)
    if mismatch:
        return False, mismatch
    if not quotients.blumen_higher_derivatives_vanish():
        return False, "higher derivative did not vanish"
    return True, f"n <= {max_n}, Weyl d <= {weyl_d}"


def verify_charp(primes=(2, 3, 5, 7)):
    """Mod-p collapse: only single length-p Lyndon factors survive."""
    checked = 0
    for p in primes:
        for k in range(1, p):
            try:
                sh_pbw_char_p(k, p)
            except CharPViolation as e:
                return False, str(e)
            checked += 1
    return True, f"{checked} (k,p) pairs"


def verify_faa(max_total: int = 10):
    for total in range(max_total + 1):
        for m in range(total + 1):
            if not identities.faa_di_bruno_check(m, total - m):
                return False, f"failed at (m,n)=({m},{total - m})"
    return True, f"m+n <= {max_total}"


def verify_cyclotomic(max_n: int = 12):
    for n in range(max_n + 1):
        if not identities.q_binomial_theorem_check(n):
            return False, f"quantum-plane binomial failed at n={n}"
    for n in range(2, max_n + 1):
        if not identities.qbinom_cyclotomic_vanish(n):
            return False, f"cyclotomic divisibility failed at n={n}"
    return True, f"n <= {max_n}"


SUITES = {
    "appendix": lambda d: verify_appendix(),
    "theorem-a": lambda d: verify_theorem_a(min(d, 8), min(d, 6)),
    "pbw": lambda d: verify_pbw_roundtrip(200, min(d, 7), min(d, 8)),
    "commutators": lambda d: verify_commutators(min(d + 2, 8)),
    "theorem-c": lambda d: verify_theorem_c(min(d, 7)),
    "lemma42": lambda d: verify_lemma42(min(d, 7), min(d, 6)),
    "theorem-b": lambda d: verify_theorem_b(min(d, 6)),
    "qbell": lambda d: verify_qbell(min(d, 6)),
    "qcomm": lambda d: verify_qcomm(min(d + 2, 8)),
    "blumen": lambda d: verify_blumen(min(d, 6), min(d + 2, 8)),
    "charp": lambda d: verify_charp(),
    "faa": lambda d: verify_faa(min(d + 4, 10)),
    "cyclotomic": lambda d: verify_cyclotomic(min(d + 6, 12)),
}


def run_suite(name: str, max_degree: int = 6):
    """Run one suite from empty caches, so that it does the same work alone as
    in ``verify all`` and frees the previous suite's caches.  A failed
    assertion or a broken arithmetic invariant (a non-triangular expansion,
    an inexact division) is the suite's FAIL detail."""
    clear_caches()
    try:
        return SUITES[name](max_degree)
    except (AssertionError, ArithmeticError) as e:
        return False, str(e)
