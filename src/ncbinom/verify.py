"""Cross-module identity suites: each function checks one theorem at desk
scale and returns (ok, detail) where detail counts the cases exercised.

These back the `verify` CLI subcommand; the test suite calls them too.
"""

from __future__ import annotations

import importlib.resources
import json
import random
from fractions import Fraction
from math import factorial

from . import bell, identities, qsigma, quotients
from .emit import emit_json
from .freepoly import FreePoly
from .pbw import (PBWPoly, commutator_ls, enumerate_pbw_monomials,
                  monomial_word, pbw_expand_monomial, pbw_rewrite)
from .rings import q_binomial
from .shuffle import sh_closed_form, sh_pbw, sh_pbw_char_p, CharPViolation
from .words import lyndon_enumerate


def verify_appendix():
    """Golden-file diff of the stored degree 5-7 shuffle tables."""
    data = json.loads(
        importlib.resources.files("ncbinom").joinpath("data/appendix.json").read_text())
    checked = 0
    for n_str, tables in data.items():
        for key, doc in tables.items():
            k, j = map(int, key.split(","))
            if emit_json(sh_closed_form((k, j), 2)) != doc:
                return False, f"mismatch at n={n_str}, SH_{{{k},{j}}}"
            checked += 1
    return True, f"{checked} tables identical"


def verify_theorem_a(max_binary: int = 8, max_ternary: int = 6):
    """Closed-form coefficients equal brute-force rewriting, two alphabets."""
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
    return True, f"{checked} multidegrees"


def _random_pbw_poly(rng, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, max_degree)
        j = rng.randint(0, d)
        monos = enumerate_pbw_monomials(2, (j, d - j))
        if not monos:
            continue
        terms[rng.choice(monos)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return PBWPoly(terms, 2)


def verify_pbw_roundtrip(samples: int = 500, max_degree: int = 7,
                         triangular_degree: int = 8, seed: int = 2024):
    """pbw_rewrite inverts pbw_expand; expansion is triangular."""
    rng = random.Random(seed)
    for _ in range(samples):
        p = _random_pbw_poly(rng, max_degree)
        if pbw_rewrite(p.expand()) != p:
            return False, f"round-trip failed on {p!r}"
    tri = 0
    for d in range(triangular_degree + 1):
        for j in range(d + 1):
            for mono in enumerate_pbw_monomials(2, (j, d - j)):
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
    """Bell partial polynomials equal boundary-filtered shuffle polynomials."""
    checked = 0
    for n in range(max_n + 1):
        for k in range(n + 1):
            if bell.bell_partial(n, k) != bell.sh_filter((k, n - k), "rightmost_not_E1"):
                return False, f"primal mismatch at ({n},{k})"
            if bell.bell_partial(n, k) != bell.bell_ls_form(n, k):
                return False, f"closed-form mismatch at ({n},{k})"
            if bell.bell_dual(n, k) != bell.sh_filter((n - k, k), "leftmost_not_E2"):
                return False, f"dual mismatch at ({n},{k})"
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


def verify_theorem_b(max_n: int = 6):
    """The operator binomial formula, for sigma = id and the q-grading."""
    sigmas = {"id": qsigma.identity, "grading": qsigma.grading_sigma}
    for name, sigma in sigmas.items():
        for n in range(max_n + 1):
            if not qsigma.theorem_b_verify(n, sigma):
                return False, f"failed at n={n}, sigma={name}"
            for k in range(1, n + 1):
                if not qsigma.d_m_factorization_check(n, k, sigma):
                    return False, f"D_m factorization failed at ({n},{k},{name})"
        if name == "id":
            for n in range(max_n + 1):
                if not qsigma.bell_compare_sigma_id(n):
                    return False, f"binomial-count reduction failed at n={n}"
    return True, f"n <= {max_n}, both sigmas"


def verify_qbell(max_n: int = 6):
    """q-Bell binomial identity and the q=1 collapse to plain Bell."""
    for n in range(max_n + 1):
        if not qsigma.binomial_q_verify(n):
            return False, f"q-binomial identity failed at n={n}"
        if qsigma.qbell_at_one(n) != bell.bell_word(n):
            return False, f"q=1 specialization failed at n={n}"
        total = FreePoly.zero(2)
        for k in range(n + 1):
            part = qsigma.qbell_partial(n, k)
            if part != qsigma.qbell_partial_alt(n, k):
                return False, f"alternative recursion mismatch at ({n},{k})"
            total = total + part
        if total != qsigma.qbell(n):
            return False, f"partial q-Bell sum mismatch at n={n}"
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
    killed = quotients.lie_ideal_closure(gens, max_d, 2) if max_d >= 3 else set()
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
    """Blumen rewriting vs closed form; Weyl closed form vs killed expansion
    and half-h form; q=1 collapse chain down to Weyl."""
    for n in range(max_n + 1):
        if quotients.blumen_binomial_rewrite(n) != quotients.blumen_binomial(n):
            return False, f"Blumen closed form disagrees with rewriting at n={n}"
    mismatch = _weyl_mismatch(weyl_d)
    if mismatch:
        return False, mismatch
    for d in range(weyl_d + 1):
        if not quotients.blumen_weyl_compare(d):
            return False, f"q=1 Weyl comparison failed at d={d}"
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


def verify_cyclotomic(max_n: int = 12, qplane_n: int = 8):
    for n in range(qplane_n + 1):
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
    "cyclotomic": lambda d: verify_cyclotomic(min(d + 6, 12), min(d + 2, 8)),
}


def run_suite(name: str, max_degree: int = 6):
    try:
        return SUITES[name](max_degree)
    except AssertionError as e:
        return False, str(e)
