import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ncbinom import verify
from ncbinom.cli import UsageError, main, parse_expression
from ncbinom.emit import emit_json, parse_json
from ncbinom.freepoly import FreePoly
from ncbinom.rings import _is_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpressionParser:
    def test_words_and_arithmetic(self):
        got = parse_expression("2*E(12) + -1*E(2)")
        want = FreePoly.word((1, 2), coeff=2) - FreePoly.word((2,))
        assert got == want

    def test_powers_and_parens(self):
        got = parse_expression("(E(1)+E(2))^2")
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        assert got == (x + y) ** 2

    def test_fractions_and_unit(self):
        got = parse_expression("1/2*E(1) + 3")
        assert got.coeff((1,)) == 0.5
        assert got.coeff(()) == 3

    def test_degree_cap_applies_before_expansion(self):
        for expr in ("(E(1)+E(2))^14", "(E(1)+E(2))^7*(E(1)+E(2))^7"):
            with pytest.raises(UsageError, match="cap 10"):
                parse_expression(expr, 2, max_degree=10)

    def test_empty_word_atom(self):
        assert parse_expression("E()") == FreePoly.unit(2)
        assert parse_expression("E(e)") == FreePoly.unit(2)

    def test_reads_back_emitted_text(self):
        # over ten or more letters the text spells words as E([1,10])
        from fractions import Fraction
        rng = random.Random(41)
        for m in (2, 10):
            for _ in range(20):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    w = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 4)))
                    c = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
                    if c:
                        terms[w] = c
                p = FreePoly(terms, m)
                assert parse_expression(str(p), m) == p


class TestCommands:
    def test_lyndon(self, capsys):
        code, out, _ = run(capsys, "lyndon", "--max-len", "3")
        assert code == 0
        assert out.strip() == "1 112 12 122 2"

    def test_factorize(self, capsys):
        code, out, _ = run(capsys, "factorize", "--word", "2112")
        assert code == 0
        assert "cfl: 2 112" in out
        code, out, _ = run(capsys, "factorize", "--word", "11212")
        assert "standard: 112 12" in out

    def test_sh_word_and_pbw(self, capsys):
        code, out, _ = run(capsys, "sh", "--degree", "1,1")
        assert code == 0
        assert out.strip() == "1*E(12) + 1*E(21)"
        code, out, _ = run(capsys, "sh", "--degree", "1,1", "--pbw")
        assert out.strip() == "1*E(12) + 2*E(2)*E(1)"

    def test_sh_char_p(self, capsys):
        code, out, _ = run(capsys, "sh", "--degree", "2,3", "--ring", "GF:5",
                           "--pbw")
        assert code == 0
        assert "E(11122)" in out and "E(11212)" in out

    def test_binom_json(self, capsys):
        code, out, _ = run(capsys, "binom", "--degree", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == "pbw"
        x, y = FreePoly.letter(1), FreePoly.letter(2)
        from ncbinom.pbw import pbw_expand
        assert pbw_expand(parse_json(doc)) == (x + y) ** 2

    def test_pbw_expr(self, capsys):
        code, out, _ = run(capsys, "pbw", "--expr", "E(12)")
        assert code == 0
        assert out.strip() == "1*E(12) + 1*E(2)*E(1)"

    def test_pbw_of_a_product_with_colliding_words(self, capsys):
        # 1*22 = 12*2: the general product must merge the two into 2*E(122)
        code, out, err = run(capsys, "pbw", "--expr", "(E(1)+E(12))*(E(2)+E(22))")
        assert (code, err) == (0, "")
        assert run(capsys, "pbw", "--expr", "E(12) + 2*E(122) + E(1222)") == (0, out, "")
        assert out.startswith("1*E(12) + 2*E(122) + 1*E(1222) + ")

    def test_bell(self, capsys):
        code, out, _ = run(capsys, "bell", "--n", "3", "--k", "2")
        assert code == 0
        assert out.strip() == "B(3,2): 1*E(122) + 3*E(2)*E(12)"
        code, out, _ = run(capsys, "bell", "--n", "2")
        assert "B(2,1):" in out and "B(2,2):" in out

    def test_bell_dual(self, capsys):
        code, out, _ = run(capsys, "bell", "--n", "3", "--k", "2", "--dual")
        assert code == 0
        assert out.startswith("B*(3,2):")

    def test_qbell(self, capsys):
        code, out, _ = run(capsys, "qbell", "--n", "2")
        assert code == 0
        assert out.strip() == "1*E(12) + -1*q*E(21) + 1*E(22)"

    def test_quotient_weyl(self, capsys):
        code, out, _ = run(capsys, "quotient", "weyl", "--d", "2")
        assert code == 0
        assert "2*E(2)*E(1)" in out

    def test_quotient_qcomm(self, capsys):
        code, out, _ = run(capsys, "quotient", "qcomm-bell", "--n", "3", "--k", "2")
        assert code == 0
        assert out.strip() == "d1 d2: 1 + q + q^2"

    @pytest.mark.parametrize("k", ["0", "7"])
    def test_quotient_qcomm_vanishing_prints_zero(self, capsys, k):
        # B(5,0) and B(5,7) are zero; they print 0 as bell --k and qbell --k do
        assert run(capsys, "quotient", "qcomm-bell", "--n", "5", "--k", k) == (0, "0\n", "")

    def test_quotient_blumen(self, capsys):
        code, out, _ = run(capsys, "quotient", "blumen", "--n", "2")
        assert code == 0
        assert "y^0 h^1 x^0: 1" in out
        assert "y^1 h^0 x^1: 1 + q" in out

    def test_quotient_kill(self, capsys):
        code, out, _ = run(capsys, "quotient", "kill", "--set", "12",
                           "--expr", "E(12)")
        assert code == 0
        assert out.strip() == "1*E(2)*E(1)"

    def test_ore(self, capsys):
        code, out, _ = run(capsys, "ore", "--n", "2", "--sigma", "grading")
        assert code == 0
        assert "coeff of x^2: 1*E(e)" in out
        assert "coeff of x^1: (1 + q)*E(2)" in out

    def test_ore_spec_file(self, tmp_path, capsys):
        # delta with delta(x) = 0, delta(y) = 1 is a sigma-derivation for
        # sigma = id only if it satisfies Leibniz; images of zero always do
        spec = {"alphabet": 2, "images": {
            "1": emit_json(FreePoly.zero(2)),
            "2": emit_json(FreePoly.zero(2))}}
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "ore", "--n", "2", "--delta-spec", str(path))
        assert code == 0

    # sigma(x1) = q x1, sigma(x2) = x2; delta(x1) = 0, delta(x2) = x1.  The
    # expected bytes were recorded before sigma-operators became functions.
    ORE_SPECS = {
        "sigma": {"alphabet": 2, "images": {
            "1": {"ring": "Q[q]", "basis": "word", "alphabet": 2,
                  "terms": [{"coeff": "q", "word": "1"}]},
            "2": {"ring": "Q", "basis": "word", "alphabet": 2,
                  "terms": [{"coeff": "1", "word": "2"}]}}},
        "delta": {"alphabet": 2, "images": {
            "1": {"ring": "Q", "basis": "word", "alphabet": 2, "terms": []},
            "2": {"ring": "Q", "basis": "word", "alphabet": 2,
                  "terms": [{"coeff": "1", "word": "1"}]}}},
    }
    ORE_SPEC_OUTPUT = {
        "text": (
            'coeff of x^4: 1*E(e)\ncoeff of x^3: 4*E(2)\n'
            'coeff of x^2: (3 + 2*q + q^2)*E(1) + 6*E(22)\n'
            'coeff of x^1: (3 + q)*E(12) + (5 + 3*q)*E(21) + 4*E(222)\n'
            'coeff of x^0: (2 + q)*E(11) + 1*E(122) + 2*E(212) + 3*E(221) + 1*E(2222)\n'),
        "json": (
            'coeff of x^4: {"ring": "Q", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "1", "word": "e"}]}\n'
            'coeff of x^3: {"ring": "Q", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "4", "word": "2"}]}\n'
            'coeff of x^2: {"ring": "Q[q]", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "3 + 2*q + q^2", "word": "1"}, {"coeff": "6", "word": "22"}]}\n'
            'coeff of x^1: {"ring": "Q[q]", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "3 + q", "word": "12"}, {"coeff": "5 + 3*q", "word": "21"}, '
            '{"coeff": "4", "word": "222"}]}\n'
            'coeff of x^0: {"ring": "Q[q]", "basis": "word", "alphabet": 2, "terms": '
            '[{"coeff": "2 + q", "word": "11"}, {"coeff": "1", "word": "122"}, '
            '{"coeff": "2", "word": "212"}, {"coeff": "3", "word": "221"}, '
            '{"coeff": "1", "word": "2222"}]}\n'),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_ore_nontrivial_spec_files(self, tmp_path, capsys, fmt):
        paths = {}
        for kind, spec in self.ORE_SPECS.items():
            paths[kind] = tmp_path / f"{kind}.json"
            paths[kind].write_text(json.dumps(spec))
        code, out, err = run(capsys, "ore", "--n", "4", "--sigma-spec", str(paths["sigma"]),
                             "--delta-spec", str(paths["delta"]), "--format", fmt)
        assert (code, out, err) == (0, self.ORE_SPEC_OUTPUT[fmt], "")

    def test_verify_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "cyclotomic", "--max-degree", "4")
        assert code == 0
        assert out.startswith("cyclotomic: PASS")

    @pytest.fixture(scope="class")
    def verify_all_lines(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "all", "--max-degree", "3"]) == 0
        return dict(line.split(":", 1) for line in out.getvalue().splitlines())

    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_verify_suite_alone_prints_its_line_of_all(self, capsys, verify_all_lines, suite):
        # each suite starts from empty caches, so it does the same work alone
        code, out, err = run(capsys, "verify", suite, "--max-degree", "3")
        assert (code, out, err) == (0, f"{suite}:{verify_all_lines[suite]}\n", "")

    # the function each command's output comes from; verify must reach every
    # one, so that a fault in a command's route can fail a suite
    ROUTES = {
        "words": ["lyndon_enumerate", "cfl_factorize", "standard_factorization"],
        "shuffle": ["sh_word", "sh_closed_form", "sh_pbw_char_p", "binomial_ls"],
        "pbw": ["reduce_mod_p", "pbw_rewrite"],
        "bell": ["bell_partial", "bell_dual"],
        "qsigma": ["qbell_closed", "ore_closed", "ore_binomial", "gen_derivation"],
        "quotients": ["weyl_binomial", "blumen_binomial", "qcomm_bell_closed",
                      "kill_project", "lie_ideal_closure"],
    }

    def test_verify_reaches_every_command_route(self):
        # a fresh interpreter, so that no cache filled by an earlier test
        # hides a call
        script = (
            "import contextlib, io, json, sys\n"
            "from ncbinom import cli\n"
            "reached = set()\n"
            "def profile(frame, event, arg):\n"
            "    if event == 'call':\n"
            "        reached.add((frame.f_globals.get('__name__'), frame.f_code.co_name))\n"
            "sys.setprofile(profile)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', 'all', '--max-degree', '4'])\n"
            "sys.setprofile(None)\n"
            "print(json.dumps([code, sorted(reached)]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        code, reached = json.loads(done.stdout)
        reached = {tuple(pair) for pair in reached}
        missed = [f"{module}.{name}" for module, names in self.ROUTES.items() for name in names
                  if (f"ncbinom.{module}", name) not in reached]
        assert code == 0
        # no verify suite reads an operator from a spec
        assert missed == ["qsigma.gen_derivation"]


class TestExitCodes:
    def test_usage_error_bad_degree(self, capsys):
        code, _, err = run(capsys, "sh", "--degree", "banana")
        assert code == 2
        assert "error:" in err

    def test_usage_error_degree_cap(self, capsys):
        code, _, err = run(capsys, "binom", "--degree", "99")
        assert code == 2
        assert "cap" in err

    def test_usage_error_missing_flag(self, capsys):
        code, _, err = run(capsys, "quotient", "weyl")
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("binom", "--degree", "3", "--ring", "GF:4"),
        ("pbw", "--expr", "E(3)"),
        ("lyndon", "--max-len", "0"),
        ("lyndon", "--max-len", "2", "--alphabet", "0"),
        ("quotient", "weyl", "--d", "-1"),
        ("ore", "--n", "2", "--sigma-spec", "missing.json"),
        ("binom", "--degree", "-1"),
        ("binom", "--alphabet", "1", "--degree", "2"),
        ("sh", "--degree", "3,-1", "--pbw"),
        ("qbell", "--n", "-1"),
        ("factorize", "--word", "13"),
        ("verify", "all", "--max-degree", "-1"),
        ("binom", "--degree", "2", "--ring", "bogus"),
        ("binom", "--degree", "2", "--ring", "Q[q]"),
        ("sh", "--degree", "2,3", "--ring", "GF:x", "--pbw"),
        ("bell", "--n", "2", "--ring", "GF:5"),
        ("quotient", "weyl", "--d", "2", "--ring", "GF:5"),
        ("quotient", "blumen", "--n", "2", "--format", "json"),
        ("quotient", "qcomm-bell", "--n", "2", "--k", "1", "--format", "latex"),
        ("pbw", "--expr", "1/2*E(1)", "--ring", "GF:2"),
        ("pbw", "--expr", "1/0*E(1)"),
        ("pbw", "--expr", "E(111111111111)"),
        ("pbw", "--expr", "3^33333"),
        ("pbw", "--expr", "E()^99999999"),
        ("pbw", "--expr", "((((((3^6)^6)^6)^6)^6)^6)"),
        ("pbw", "--expr", "3^9999", "--max-degree", "9999"),
        ("pbw", "--expr", "2^14287", "--max-degree", "20000"),
        ("pbw", "--expr", "9" * 4301),
        ("pbw", "--expr", "1/" + "7" * 4301),
        ("pbw", "--expr", "9" * 4300 + "+1"),
        ("pbw", "--expr", "9" * 3000 + "*" + "9" * 3000),
        ("sh", "--degree", "2,3", "--ring", "GF:5"),
        ("sh", "--degree", "0,5", "--pbw", "--ring", "GF:5"),
        ("binom", "--degree", "2", "--ring", "GF:3317044064679887385961981"),
        ("binom", "--degree", "2", "--ring", "GF:" + "7" * 5000),
        ("factorize", "--word", "[1,2"),
        ("factorize", "--word", "[[2,1]]"),
        ("quotient", "kill", "--set", "[1,2", "--expr", "(E(1)+E(2))^3"),
        ("pbw", "--alphabet", "10", "--expr", "E([1,11])"),
        ("pbw", "--alphabet", "10", "--expr", "E([1,,2])"),
        # errors in the command line itself
        (),
        ("bogus",),
        ("binom",),
        ("binom", "--degree", "x"),
        ("binom", "--degree", "2", "--format", "pdf"),
        ("binom", "--degree", "2", "--bogus"),
        ("quotient",),
        ("quotient", "nope", "--d", "2"),
        ("lyndon", "--max-len", "2", "extra"),
    ])
    def test_domain_errors_are_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [("pbw",), ("quotient", "kill", "--set", "12")])
    def test_deep_nesting_is_a_usage_error(self, command):
        # a fresh interpreter, so the depth at which recursion gives out is
        # the command line's own and not the test runner's
        deep = "(" * 300 + "E(1)" + ")" * 300
        env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "ncbinom.cli", *command, "--expr", deep],
                              env=env, capture_output=True, timeout=60)
        assert b"Traceback" not in done.stderr
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", b"error: expression nested too deeply\n")
        shallow = "(" * 150 + "E(1)" + ")" * 150
        done = subprocess.run([sys.executable, "-m", "ncbinom.cli", *command, "--expr", shallow],
                              env=env, capture_output=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"1*E(1)\n", b"")

    @pytest.mark.parametrize("expr, value", [
        ("9" * 4300, 10 ** 4300 - 1),
        ("2^14284", 2 ** 14284),           # 4300 digits
        ("(((3^6)^6)^6)^6", 3 ** 1296),
        ("(2*E(1)+E(2))^10", 2 ** 10),     # coefficient of E(1)^10
    ])
    def test_coefficients_up_to_the_digit_limit_print(self, capsys, expr, value):
        code, out, err = run(capsys, "pbw", "--expr", expr, "--max-degree", "20000")
        assert code == 0 and err == ""
        assert out.startswith(f"{value}*")

    @pytest.mark.parametrize("argv", [
        ("factorize", "--word=--"),
        ("sh", "--degree=--"),
        ("bell", "--n=--"),
        ("lyndon", "--max-len=--"),
        ("binom", "--degree=--"),
        ("binom", "--degree", "3", "--ring=--"),
        ("binom", "--degree", "3", "--format=--"),
        ("verify", "theorem-a", "--max-degree=--"),
        ("ore", "--n", "2", "--sigma-spec=--"),
        ("ore", "--n", "2", "--delta-spec=--"),
    ])
    def test_double_dash_option_value_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err

    @pytest.mark.parametrize("sigma", ["id", "grading"])
    def test_sigma_with_sigma_spec_is_refused(self, tmp_path, capsys, sigma):
        # a spec once silently overrode --sigma: with the identity as spec,
        # --sigma grading printed the bytes of sigma = id and exited 0
        letter = {x: {"ring": "Q", "basis": "word", "alphabet": 2,
                      "terms": [{"coeff": "1", "word": x}]} for x in "12"}
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"alphabet": 2, "images": letter}))
        assert run(capsys, "ore", "--n", "2", "--sigma-spec", str(path))[0] == 0
        code, out, err = run(capsys, "ore", "--n", "2", "--sigma", sigma,
                             "--sigma-spec", str(path))
        assert (code, out) == (2, "")
        assert err == "error: --sigma and --sigma-spec both give sigma; pass one\n"

    def test_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "sigma.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "ore", "--n", "2", "--sigma-spec", str(path))
        assert code == 2 and err.startswith("error:")
        path.write_text(json.dumps({"alphabet": 2, "images": {}}))
        code, _, err = run(capsys, "ore", "--n", "2", "--sigma-spec", str(path))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("sigma, kind", [
        (("--sigma", "grading"), "--delta-spec"),
        (("--sigma", "id"), "--delta-spec"),
        ((), "--sigma-spec"),
    ])
    def test_spec_over_gf_p_is_refused(self, tmp_path, capsys, sigma, kind):
        # ore works over Q and Q[q]; GF(5) images once crashed the grading
        # sigma and mixed silently with rationals under sigma = id
        images = {"1": {"ring": "Q", "basis": "word", "alphabet": 2, "terms": []},
                  "2": {"ring": "GF:5", "basis": "word", "alphabet": 2,
                        "terms": [{"coeff": "2", "word": "1"}]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"alphabet": 2, "images": images}))
        code, out, err = run(capsys, "ore", "--n", "2", *sigma, kind, str(path))
        assert (code, out) == (2, "")
        assert err.count("error:") == 1 and "GF:5" in err and len(err.splitlines()) == 1

    _WORD2 = {"ring": "Q", "basis": "word", "alphabet": 2,
              "terms": [{"coeff": "1", "word": "2"}]}

    @pytest.mark.parametrize("kind", ["--sigma-spec", "--delta-spec"])
    @pytest.mark.parametrize("spec, reason", [
        ({"alphabet": 3, "images": {"1": _WORD2, "2": _WORD2, "3": _WORD2}}, "alphabet 3"),
        ({"alphabet": 2, "images": {"1": dict(_WORD2, alphabet=3), "2": _WORD2}},
         "image of 1 is not a word polynomial over 2 letters"),
        ({"alphabet": 2, "images": {"1": {"ring": "Q", "basis": "pbw", "alphabet": 2,
                                          "terms": [{"coeff": "1", "factors": [["1", 1]]}]},
                                    "2": _WORD2}},
         "image of 1 is not a word polynomial over 2 letters"),
        ({"alphabet": 2, "images": {"1": _WORD2, "2": dict(_WORD2, terms=[
            {"coeff": "1", "word": "22"}, {"coeff": "1", "word": "30"}])}},
         "letter 3 outside alphabet of size 2"),
    ])
    def test_spec_beyond_two_letters_is_refused(self, tmp_path, capsys, kind, spec, reason):
        # ore works over 2 letters; a 3-letter spec once ended in an
        # "alphabet mismatch" traceback
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "ore", "--n", "2", kind, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and reason in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, err", [
        (("weyl", "--d", "2", "--n", "7", "--set", "12", "--expr", "E(1)", "--alphabet", "5"),
         "quotient weyl does not take --alphabet, --expr, --n, --set"),
        (("weyl", "--d", "2", "--alphabet", "2"), "quotient weyl does not take --alphabet"),
        (("blumen", "--n", "2", "--k", "1"), "quotient blumen does not take --k"),
        (("qcomm-bell", "--n", "2", "--k", "1", "--d", "3"),
         "quotient qcomm-bell does not take --d"),
        (("kill", "--set", "12", "--expr", "E(12)", "--n", "2"),
         "quotient kill does not take --n"),
        (("weyl", "--n", "2"), "quotient weyl needs --d"),
        (("qcomm-bell", "--n", "2"), "quotient qcomm-bell needs --n and --k"),
        (("kill", "--set", "", "--expr", "E(1)"), "quotient kill needs --set and --expr"),
    ])
    def test_quotient_takes_only_the_options_its_model_reads(self, capsys, argv, err):
        assert run(capsys, "quotient", *argv) == (2, "", f"error: {err}\n")

    def test_quotient_kill_reads_the_alphabet(self, capsys):
        code, out, err = run(capsys, "quotient", "kill", "--set", "13",
                             "--expr", "E(13) - E(31) + E(2)", "--alphabet", "3")
        assert (code, out, err) == (0, "1*E(2)\n", "")

    def test_quotient_kill_set_splits_outside_brackets(self, capsys):
        code, out, err = run(capsys, "quotient", "kill", "--alphabet", "10",
                             "--set", "[1,10]", "--expr", "E([1,10])")
        assert (code, out, err) == (0, "1*E([10])*E([1])\n", "")
        code, out, err = run(capsys, "quotient", "kill", "--alphabet", "10",
                             "--set", "12,[1,10]", "--expr", "E(12) + E([1,10])")
        assert (code, out, err) == (0, "1*E([2])*E([1]) + 1*E([10])*E([1])\n", "")

    @pytest.mark.parametrize("bad", ["[1,10", "1,10]", "[1,[2]]", "1,,2"])
    def test_quotient_kill_malformed_set_is_one_error(self, capsys, bad):
        code, out, err = run(capsys, "quotient", "kill", "--alphabet", "10",
                             "--set", bad, "--expr", "E([1,10])")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_ring_q_accepted_everywhere(self, capsys):
        code, out, _ = run(capsys, "bell", "--n", "2", "--k", "1", "--ring", "Q")
        assert code == 0 and out.strip() == "B(2,1): 1*E(12)"

    def test_ring_gf_reduces(self, capsys):
        code, out, _ = run(capsys, "binom", "--degree", "3", "--ring", "GF:3")
        assert code == 0
        assert out.strip() == "1*E(1)^3 + 1*E(112) + 1*E(122) + 1*E(2)^3"

    def test_ring_gf_large_prime_is_fast(self, capsys):
        _is_prime.cache_clear()
        start = time.perf_counter()
        code, out, _ = run(capsys, "binom", "--degree", "2", "--ring", "GF:2305843009213693951")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.strip() == "1*E(1)^2 + 1*E(12) + 2*E(2)*E(1) + 1*E(2)^2"

    def test_internal_errors_are_not_masked(self, monkeypatch):
        from ncbinom import cli
        from ncbinom.pbw import OrderViolation

        def broken(m, d):
            raise OrderViolation("planted")
        monkeypatch.setattr(cli, "binomial_ls", broken)
        with pytest.raises(OrderViolation):
            main(["binom", "--degree", "2"])


# help strings the help output must keep, beside every flag of each command
_COMMAND_HELP = {
    "lyndon": "enumerate Lyndon words",
    "factorize": "Chen-Fox-Lyndon and standard factorization",
    "sh": "shuffle type polynomial",
    "binom": "full multinomial expansion in the PBW basis",
    "pbw": "rewrite a word-basis expression into the PBW basis",
    "bell": "partial Bell differential polynomials (PBW basis)",
    "qbell": "q-Bell differential polynomials over Q[q]",
    "quotient": "structured quotient expansions",
    "ore": "binomial coefficients for xy = sigma(y)x + delta(y)",
    "verify": "run identity verification suites",
}
_OPTION_HELP = {
    "sh": ["letter counts i,j[,k...]", "emit in the PBW basis", "Q or GF:p (p prime)"],
    "binom": ["Q or GF:p (p prime)"],
    "pbw": ['e.g. "2*E(21)+E(12)" or "(E(1)+E(2))^3"', "Q or GF:p (p prime)"],
    "quotient": ["comma-separated Lyndon generators to kill",
                 "weyl", "blumen", "qcomm-bell", "kill"],
    "ore": ["JSON file with generator images", "id", "grading"],
    "verify": sorted(verify.SUITES),
}


class TestHelpAndOptionForms:
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_names_every_command(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        for command, about in _COMMAND_HELP.items():
            assert f"  {command} " in out and about in out

    @pytest.mark.parametrize("command", sorted(_COMMAND_HELP))
    def test_command_help_names_every_flag(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert _COMMAND_HELP[command] in out
        required, optional = _FLAGS[command]
        for flag in required + optional + _OPTION_HELP.get(command, []):
            assert flag in out, flag
        assert run(capsys, command, "-h") == (0, out, "")

    @pytest.mark.parametrize("plain, other", [
        (("binom", "--degree", "3"), ("binom", "--degree=3")),
        (("binom", "--degree", "3"), ("binom", "--deg", "3")),
        (("binom", "--degree", "3"), ("binom", "--deg=3")),
        (("binom", "--degree", "3"), ("binom", "--degree", "5", "--degree", "3")),
        (("sh", "--degree", "2,3", "--pbw", "--format", "json"),
         ("sh", "--deg=2,3", "--pb", "--form", "latex", "--format=json")),
        (("quotient", "weyl", "--d", "3"), ("quotient", "--d=3", "weyl")),
        (("bell", "--n", "4", "--dual"), ("bell", "--du", "--n=4")),
        (("ore", "--n", "3", "--sigma", "grading"), ("ore", "--n", "3", "--sigma=grading")),
        (("verify", "pbw", "--max-degree", "3"), ("verify", "pbw", "--max=3")),
        # a value may begin with a dash, spelled either way
        (("pbw", "--expr", "-E(1)"), ("pbw", "--expr=-E(1)")),
    ])
    def test_option_spellings_give_the_same_bytes(self, capsys, plain, other):
        want = run(capsys, *plain)
        assert want[0] == 0 and want[2] == ""
        assert run(capsys, *other) == want

    def test_ambiguous_prefix_is_one_line(self, capsys):
        code, out, err = run(capsys, "ore", "--n", "2", "--sig", "id")
        assert (code, out) == (2, "")
        assert err == "error: ambiguous option: --sig could match --sigma, --sigma-spec\n"


def _cli_env():
    return dict(os.environ, PYTHONPATH=str(Path(verify.__file__).resolve().parents[1]))


class TestFreshProcess:
    """What only a fresh interpreter shows: its exit on a closed pipe and the
    modules it loads."""

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    @pytest.mark.parametrize("read", [0, 20])
    def test_closed_stdout_exits_141_quietly(self, fmt, read):
        # 123 KB of text, more than a pipe holds, so the writer meets the close
        with subprocess.Popen([sys.executable, "-m", "ncbinom.cli", "binom", "--degree", "12",
                               "--max-degree", "12", "--format", fmt], env=_cli_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(read)
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")
        assert len(head) == read

    def test_importing_the_cli_does_not_load_json(self):
        # -S keeps the host's site customisations, which may import json, out
        done = subprocess.run([sys.executable, "-S", "-c",
                               "import ncbinom.cli, sys; print('json' in sys.modules)"],
                              env=_cli_env(), capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_importing_the_cli_loads_no_parser_or_resource_machinery(self):
        # the tracer resolves its spans through sys.modules, so the package's
        # modules stay imported at start-up
        script = ("import ncbinom.cli, sys\n"
                  "for name in ('argparse', 'gettext', 'importlib.resources', 'ncbinom.qsigma',"
                  " 'ncbinom.quotients', 'ncbinom.verify'):\n"
                  "    print(name, name in sys.modules)\n")
        done = subprocess.run([sys.executable, "-S", "-c", script],
                              env=_cli_env(), capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split("\n") == [
            "argparse False", "gettext False", "importlib.resources False",
            "ncbinom.qsigma True", "ncbinom.quotients True", "ncbinom.verify True", ""]

    @pytest.mark.parametrize("fmt, loaded", [("text", False), ("latex", False), ("json", True)])
    def test_json_loads_only_for_json_output(self, fmt, loaded):
        script = ("import sys\nfrom ncbinom.cli import main\n"
                  "code = main(['binom', '--degree', '3', '--format', sys.argv[1]])\n"
                  "print(code, 'json' in sys.modules, file=sys.stderr)\n")
        done = subprocess.run([sys.executable, "-S", "-c", script, fmt], env=_cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.stderr == f"0 {loaded}\n"
        assert "122" in done.stdout

    @pytest.mark.parametrize("argv", [["verify", "appendix"],
                                      ["verify", "all", "--max-degree", "4"]])
    def test_verify_loads_no_json_or_resource_machinery(self, argv):
        script = ("import sys\nfrom ncbinom.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, 'json' in sys.modules, 'importlib.resources' in sys.modules,"
                  " file=sys.stderr)\n")
        done = subprocess.run([sys.executable, "-S", "-c", script, *argv], env=_cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.stderr == "0 False False\n"
        assert "appendix: PASS (21 tables identical)\n" in done.stdout


class TestJsonPipeline:
    def test_emit_parse_identity_random(self):
        rng = random.Random(31)
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
                terms[w] = rng.randint(-5, 5) or 1
            p = FreePoly(terms, 2)
            assert parse_json(emit_json(p)) == p


_TOKENS = ["E(1)", "E(2)", "E(12)", "E(3)", "E()", "0", "1", "2", "3", "/",
           "+", "-", "*", "^", "(", ")", ",", " "]
_TEXT = st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join)
_SMALL = st.integers(-1, 5).map(str)
_OPTIONS = {
    "--format": st.sampled_from(["text", "latex", "json", "html"]),
    "--ring": st.sampled_from(["Q", "GF:2", "GF:3", "GF:5", "GF:4", "GF:x", "Q[q]", "bogus"]),
    "--degree": st.one_of(_SMALL, st.lists(_SMALL, min_size=2, max_size=3).map(",".join)),
    "--n": _SMALL, "--k": _SMALL, "--d": _SMALL, "--max-len": _SMALL,
    "--alphabet": st.integers(-1, 3).map(str),
    "--max-degree": st.integers(-1, 6).map(str),
    "--expr": _TEXT, "--word": _TEXT, "--set": _TEXT,
    "--sigma": st.sampled_from(["id", "grading", "bogus"]),
    "--sigma-spec": st.just("missing.json"), "--delta-spec": st.just("missing.json"),
    "--pbw": st.just(None), "--dual": st.just(None),
}
_COMMON = ["--ring", "--format", "--max-degree"]
_FLAGS = {  # command: (flags it requires, flags it may take)
    "lyndon": (["--max-len"], ["--alphabet"]),
    "factorize": (["--word"], ["--alphabet"]),
    "sh": (["--degree"], ["--pbw", *_COMMON]),
    "binom": (["--degree"], ["--alphabet", *_COMMON]),
    "pbw": (["--expr"], ["--alphabet", *_COMMON]),
    "bell": (["--n"], ["--k", "--dual", *_COMMON]),
    "qbell": (["--n"], ["--k", *_COMMON]),
    "quotient": ([], ["--d", "--n", "--k", "--set", "--expr", "--alphabet", *_COMMON]),
    "ore": (["--n"], ["--sigma", "--sigma-spec", "--delta-spec", *_COMMON]),
    "verify": ([], ["--max-degree"]),
    "bogus": ([], ["--n"]),
}
_POSITIONAL = {"quotient": ["weyl", "blumen", "qcomm-bell", "kill", "bogus"],
               "verify": sorted(verify.SUITES) + ["all", "bogus"]}


@st.composite
def _argv(draw):
    """A subcommand with its required flags, a random subset of the others,
    now and then a flag it does not take, and small or malformed values."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command in _POSITIONAL:
        argv.append(draw(st.sampled_from(_POSITIONAL[command])))
    required, optional = _FLAGS[command]
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(_OPTIONS))))
    for flag in flags:
        value = draw(_OPTIONS[flag])
        argv += [flag] if value is None else [f"{flag}={value}"]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_argv())
    def test_any_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, err.getvalue()
