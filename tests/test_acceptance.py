"""Acceptance gate: one test per headline capability, each printing a
single PASS/FAIL line.  Parameters here are the full acceptance sizes; the
per-module tests cover the same ground at desk scale.
"""

from ncbinom import verify
from ncbinom.shuffle import sh_closed_form


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_shuffle_tables_degree_5_to_7():
    ok, detail = verify.verify_appendix()
    if ok:
        # spot-check two sentinel coefficients in SH_{2,3}
        p = sh_closed_form((2, 3), 2)
        ok = (p.coeff((((1, 1, 2, 1, 2), 1),)) == 3
              and p.coeff((((1, 1, 1, 2, 2), 1),)) == 1)
        if not ok:
            detail = "sentinel coefficients of SH_{2,3} wrong"
    report("shuffle tables degree 5-7 match golden files", ok, detail)


def test_02_closed_coefficient_formula():
    ok, detail = verify.verify_theorem_a(max_binary=8, max_ternary=6)
    report("closed coefficient formula = rewriting, binary<=8 ternary<=6",
           ok, detail)


def test_03_pbw_roundtrip_and_triangularity():
    ok, detail = verify.verify_pbw_roundtrip(samples=500, max_degree=7,
                                             triangular_degree=8)
    report("PBW rewrite/expand round-trip and triangularity", ok, detail)


def test_04_lyndon_bracket_structure():
    ok, detail = verify.verify_commutators(max_total=8)
    report("bracket structure of basis commutators to degree 8", ok, detail)


def test_05_bell_equals_filtered_shuffle():
    ok, detail = verify.verify_theorem_c(max_n=7)
    report("Bell partials = boundary-filtered shuffle polynomials, n<=7",
           ok, detail)


def test_06_bell_binomial_expansions():
    ok, detail = verify.verify_lemma42(max_n=7, classical_n=6)
    report("Bell binomial expansions and classical projection", ok, detail)


def test_07_operator_binomial_formula():
    ok, detail = verify.verify_theorem_b(max_n=6)
    report("operator binomial formula with D_m factorization, n<=6",
           ok, detail)


def test_08_q_bell_polynomials():
    ok, detail = verify.verify_qbell(max_n=6)
    report("q-Bell identities and q=1 collapse, n<=6", ok, detail)


def test_09_q_commutative_model():
    ok, detail = verify.verify_qcomm(max_n=8)
    report("q-commutative Bell routes agree, n<=8", ok, detail)


def test_10_blumen_algebra():
    ok, detail = verify.verify_blumen(max_n=6, weyl_d=8)
    report("Blumen rewriting, closed form and Weyl collapse", ok, detail)


def test_11_characteristic_p_collapse():
    ok, detail = verify.verify_charp(primes=(2, 3, 5, 7))
    report("mod-p collapse to single length-p Lyndon factors", ok, detail)


def test_12_composition_and_cyclotomic_identities():
    ok, detail = verify.verify_faa(max_total=10)
    if ok:
        ok, detail = verify.verify_cyclotomic(max_n=12)
    report("composition-sum and cyclotomic/quantum-plane identities",
           ok, detail)
