import contextlib
import io
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from ncbinom.cli import main
from ncbinom.emit import CHUNK_TERMS, coeff_from_str, emit, emit_json, emit_latex, parse_json
from ncbinom.freepoly import FreePoly
from ncbinom.pbw import PBWPoly, monomial_from_word, pbw_rewrite
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
        with pytest.raises(TypeError, match="different rings"):
            emit_json(FreePoly({(1,): ModInt(1, 5), (2,): ModInt(1, 7)}, 2))

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

    def test_emit_dispatch(self, capsys):
        p = FreePoly.word((1,))
        emit(p, "text")
        assert capsys.readouterr().out == "1*E(1)\n"
        emit(p, "json")
        assert json.loads(capsys.readouterr().out)["basis"] == "word"
        with pytest.raises(ValueError):
            emit(p, "html")
        assert capsys.readouterr().out == ""


# every word over 2 letters up to length 9: 1,023 keys, enough for 2 chunks + 1
_WORDS = [w for n in range(10) for w in itertools.product((1, 2), repeat=n)]
_COEFFS = {"int": lambda i: (-1) ** i * (i + 1),
           "Fraction": lambda i: Fraction(i + 1, 3),
           "QPoly": lambda i: QPoly((1, i + 1)),  # spelled "1 + 2*q": parenthesised
           "ModInt": lambda i: ModInt(i % 6 + 1, 7)}
_SIZES = [0, 1, CHUNK_TERMS - 1, CHUNK_TERMS, CHUNK_TERMS + 1, 2 * CHUNK_TERMS + 1]


def _poly(basis, ring, size):
    """A polynomial of ``size`` terms in that basis with coefficients of that
    kind; PBW keys are the CFL monomials of the words, so they are distinct."""
    coeff = _COEFFS[ring]
    if basis == "word":
        return FreePoly({w: coeff(i) for i, w in enumerate(_WORDS[:size])}, 2)
    return PBWPoly({monomial_from_word(w): coeff(i) for i, w in enumerate(_WORDS[:size])}, 2)


class _Writes(io.StringIO):
    """A standard output that records each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


class TestStreamedOutput:
    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("ring", list(_COEFFS))
    @pytest.mark.parametrize("basis", ["word", "pbw"])
    def test_text_is_str_and_newline(self, capsys, basis, ring, size):
        p = _poly(basis, ring, size)
        assert len(p.terms) == size
        emit(p, "text")
        assert capsys.readouterr().out == str(p) + "\n"

    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("ring", list(_COEFFS))
    @pytest.mark.parametrize("basis", ["word", "pbw"])
    def test_json_and_latex_match_their_builders(self, capsys, basis, ring, size):
        p = _poly(basis, ring, size)
        emit(p, "json")
        assert capsys.readouterr().out == json.dumps(emit_json(p)) + "\n"
        emit(p, "latex")
        assert capsys.readouterr().out == emit_latex(p) + "\n"

    # terms in one write of each format, for a word-basis p with int coefficients:
    # a LaTeX term starts a write or follows its sign, and no term holds a sign
    _TERMS_IN = {"text": lambda w: w.count("*E("),
                 "latex": lambda w: len(re.findall(r"(?:^|[+-])[^+\-\n]", w)),
                 "json": lambda w: w.count('"coeff"')}
    _BUILT = {"text": str, "latex": emit_latex, "json": lambda p: json.dumps(emit_json(p))}

    @pytest.mark.parametrize("fmt", list(_TERMS_IN))
    def test_every_format_is_written_a_chunk_at_a_time(self, fmt):
        p = _poly("word", "int", 2 * CHUNK_TERMS + 1)
        out = _Writes()
        with contextlib.redirect_stdout(out):
            emit(p, fmt)
        assert out.getvalue() == self._BUILT[fmt](p) + "\n"
        counts = [self._TERMS_IN[fmt](w) for w in out.writes]
        assert max(counts) == CHUNK_TERMS
        assert sum(counts) == len(p.terms)

    def test_mixed_rings_raise_before_json_is_written(self, capsys):
        terms = dict(_poly("pbw", "QPoly", CHUNK_TERMS + 1).terms)
        terms[monomial_from_word(_WORDS[CHUNK_TERMS + 1])] = ModInt(3, 7)
        p = PBWPoly(terms, 2)
        with pytest.raises(TypeError, match="different rings"):
            emit(p, "json")
        assert capsys.readouterr().out == ""

    def test_unknown_format_writes_nothing(self, capsys):
        with pytest.raises(ValueError, match="unknown format"):
            emit(_poly("pbw", "QPoly", CHUNK_TERMS + 1), "html")
        assert capsys.readouterr().out == ""
