import json
import random
from fractions import Fraction

import pytest

from ncbinom.cli import main
from ncbinom.emit import coeff_from_str, emit, emit_json, emit_latex, parse_json
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import PBWPoly, pbw_rewrite
from ncbinom.rings import ModInt, QPoly


class TestCoeffStrings:
    def test_rational_roundtrip(self):
        for c in (3, -2, Fraction(5, 7), Fraction(-1, 3)):
            assert coeff_from_str(str(c), "Q") == c

    def test_modint_roundtrip(self):
        c = ModInt(4, 7)
        assert coeff_from_str(str(c), "GF:7") == c

    def test_qpoly_roundtrip(self):
        samples = [QPoly.one(), QPoly.q(), QPoly((1, 1, 1)),
                   QPoly((Fraction(1, 2), 0, -3)), QPoly((0, 2))]
        for c in samples:
            assert coeff_from_str(str(c), "Q[q]") == c

    def test_bad_ring_tag(self):
        with pytest.raises(ValueError):
            coeff_from_str("1", "Z")


class TestText:
    def test_word_basis(self):
        p = FreePoly.word((1, 2), coeff=2) + FreePoly.word((2,), coeff=-1)
        assert str(p) == "2*E(12) + -1*E(2)"
        assert str(FreePoly.zero(2)) == "0"

    def test_pbw_basis(self):
        p = pbw_rewrite(FreePoly.word((1, 2)))
        assert str(p) == "1*E(12) + 1*E(2)*E(1)"

    def test_qpoly_coeffs_parenthesized(self):
        p = FreePoly({(1,): QPoly((1, 1))}, 2)
        assert str(p) == "(1 + q)*E(1)"

    def test_repr_wraps_text(self):
        assert repr(FreePoly.word((1, 10), m=11)) == "FreePoly(1*E([1,10]))"
        assert repr(PBWPoly.monomial((((1, 2), 2),), coeff=-1)) == "PBWPoly(-1*E(12)^2)"
        assert repr(PBWPoly.zero(2)) == "PBWPoly(0)"


class TestLatex:
    def test_word_basis(self):
        # letters are spelled x_{a}, so coefficient digits cannot run into them
        p = FreePoly.word((1, 1, 2), coeff=3)
        assert emit_latex(p) == "3x_{1}x_{1}x_{2}"

    def test_signs(self):
        assert emit_latex(FreePoly.word((2,), coeff=-1)) == "-x_{2}"
        p = FreePoly.word((1, 2), coeff=3) - FreePoly.word((2, 1), coeff=3)
        assert emit_latex(p) == "3x_{1}x_{2}-3x_{2}x_{1}"
        p = PBWPoly.monomial((((1,), 1),)) - PBWPoly.monomial((((2,), 1),), coeff=Fraction(2, 3))
        assert emit_latex(p) == "E_{1}-2/3E_{2}"
        assert emit_latex(-PBWPoly.monomial(())) == "-1"

    def test_unit_word(self):
        assert emit_latex(FreePoly.unit(2)) == "1"
        assert emit_latex(FreePoly.unit(2).scale(2)) == "2"
        assert emit_latex(FreePoly.zero(2)) == "0"

    def test_qpoly_coefficient_terms_signed(self):
        p = FreePoly({(1,): QPoly((0, -1, -1)), (2,): -QPoly.q(2)}, 2)
        assert emit_latex(p) == "(-q-q^{2})x_{1}-q^{2}x_{2}"

    def test_alphabet_above_nine(self):
        p = FreePoly.word((1, 10), m=11) + FreePoly.word((11, 1), m=11)
        assert emit_latex(p) == "x_{1}x_{10}+x_{11}x_{1}"
        p = PBWPoly.monomial((((1, 10), 1),), m=11)
        assert emit_latex(p) == "E_{[1,10]}"

    def test_pbw_basis(self):
        p = PBWPoly.monomial((((1, 2), 2), ((1,), 1)), coeff=2)
        assert emit_latex(p) == "2E_{12}^{2}E_{1}"

    def test_unit_coefficient_dropped(self):
        p = PBWPoly.monomial((((2,), 1),))
        assert emit_latex(p) == "E_{2}"


class TestJson:
    def rand_free(self, rng, ring):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 5)))
            if ring == "Q":
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            elif ring == "Q[q]":
                c = QPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            else:
                c = ModInt(rng.randint(0, 6), 7)
            if c:
                terms[w] = c
        return FreePoly(terms, 2)

    def test_roundtrip_word_basis(self):
        rng = random.Random(21)
        for ring in ("Q", "Q[q]", "GF:7"):
            for _ in range(20):
                p = self.rand_free(rng, ring)
                assert parse_json(emit_json(p)) == p

    def test_roundtrip_pbw_basis(self):
        rng = random.Random(22)
        for _ in range(20):
            f = self.rand_free(rng, "Q")
            p = pbw_rewrite(f)
            assert parse_json(emit_json(p)) == p

    def test_schema_fields(self):
        doc = emit_json(pbw_rewrite(FreePoly.word((1, 2))))
        assert doc["ring"] == "Q"
        assert doc["basis"] == "pbw"
        assert doc["alphabet"] == 2
        assert {"coeff", "factors"} <= set(doc["terms"][0])
        # word basis
        doc = emit_json(FreePoly.word((1, 2)))
        assert doc["basis"] == "word"
        assert doc["terms"] == [{"coeff": "1", "word": "12"}]

    def test_ring_tag_read_from_every_coefficient(self):
        # an int coefficient first, q-polynomials after: the document is Q[q]
        p = FreePoly({(1,): 1, (2,): QPoly((0, -1, -1)), (2, 2): Fraction(1, 2)}, 2)
        doc = emit_json(p)
        assert doc["ring"] == "Q[q]"
        assert parse_json(doc) == p
        assert emit_json(FreePoly({(1,): 3, (2,): ModInt(2, 5)}, 2))["ring"] == "GF:5"
        assert emit_json(FreePoly.zero(2))["ring"] == "Q"
        with pytest.raises(TypeError, match="different rings"):
            emit_json(FreePoly({(1,): QPoly((1, 1)), (2,): ModInt(2, 5)}, 2))

    @pytest.mark.parametrize("basis, term", [("word", {"coeff": "1", "word": "07"}),
                                             ("word", {"coeff": "1", "word": "30"}),
                                             ("pbw", {"coeff": "1", "factors": [["3", 1]]})])
    def test_parse_refuses_letters_outside_the_alphabet(self, basis, term):
        # a word over letters 1..m once parsed with letter 0 or m + 1 in it
        doc = {"ring": "Q", "basis": basis, "alphabet": 2, "terms": [term]}
        with pytest.raises(ValueError, match="outside alphabet of size 2"):
            parse_json(doc)

    @pytest.mark.parametrize("argv", [("qbell", "--n", "4"), ("binom", "--degree", "4"),
                                      ("binom", "--degree", "4", "--ring", "GF:3")])
    def test_cli_json_round_trips(self, capsys, argv):
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "text"]) == 0
        assert str(parse_json(doc)) == capsys.readouterr().out.strip()

    def test_emit_dispatch(self):
        p = FreePoly.word((1,))
        assert emit(p, "text") == "1*E(1)"
        assert json.loads(emit(p, "json"))["basis"] == "word"
        with pytest.raises(ValueError):
            emit(p, "html")
