"""Text, LaTeX and JSON output for word-basis and PBW-basis polynomials.

Every format reads one walk, ``SparseCombination.walk``: the terms in key
order as (factors, coefficient), where a word w is the single factor (w, 1)
and a PBW monomial is its tuple of (Lyndon word, exponent) factors.

- Text is ``str(p)``, its terms spelled by ``SparseCombination.text_terms``:
  ``2*E(12) + -1*E(2)*E(1)``, which the CLI's expression parser reads back.
  ``emit`` writes it in chunks of ``CHUNK_TERMS`` terms, so the whole text of
  a large polynomial is never held at once.
- LaTeX spells a word-basis letter a as ``x_{a}`` and a PBW factor as
  ``E_{α}^{t}``; a coefficient of ±1 shows only its sign and a negative term
  joins with ``-``: ``3x_{1}x_{2}-x_{2}``, ``2E_{12}^{2}E_{1}-E_{2}``.
- JSON documents round-trip losslessly: {"ring": ..., "basis": "word"|"pbw",
  "alphabet": m, "terms": [...]} with coefficients rendered as strings.  The
  ring tag is read from every coefficient: one q-polynomial makes it Q[q].

Text and JSON are the byte-stable forms.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import islice

from .freepoly import FreePoly
from .pbw import PBWPoly, validate_monomial
from .rings import ModInt, QPoly
from .words import format_word, parse_word


def ring_tag(coeff) -> str:
    if isinstance(coeff, (int, Fraction)):
        return "Q"
    if isinstance(coeff, QPoly):
        return "Q[q]"
    if isinstance(coeff, ModInt):
        return f"GF:{coeff.p}"
    raise TypeError(f"unknown coefficient type {type(coeff).__name__}")


_QTERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*?)?(q(?:\^(\d+))?)?$")


def coeff_from_str(s: str, ring: str):
    s = s.strip()
    if ring == "Q":
        return Fraction(s) if "/" in s else int(s)
    if ring.startswith("GF:"):
        return ModInt(int(s), int(ring[3:]))
    if ring == "Q[q]":
        return _parse_qpoly(s)
    raise ValueError(f"unknown ring tag {ring!r}")


def _parse_qpoly(s: str) -> QPoly:
    if s == "0":
        return QPoly.zero()
    coeffs = {}
    for part in s.split(" + "):
        m = _QTERM.match(part.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse q-polynomial term {part!r}")
        c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        if m.group(2) is None:
            power = 0
        else:
            power = int(m.group(3)) if m.group(3) else 1
        coeffs[power] = coeffs.get(power, Fraction(0)) + c
    top = max(coeffs)
    return QPoly([coeffs.get(i, 0) for i in range(top + 1)])


# -- LaTeX -------------------------------------------------------------------

def _latex_factor(basis: str, a, t: int, m: int) -> str:
    if basis == "word":
        return "".join(f"x_{{{x}}}" for x in a)
    return "E_{" + format_word(a, m) + "}" + (f"^{{{t}}}" if t > 1 else "")


def _latex_term(c, body: str):
    """(negative, text) of the term c*body; a coefficient of ±1 before a
    nonempty body shows only its sign."""
    if isinstance(c, QPoly):
        qterms = [(x, "" if i == 0 else "q" if i == 1 else f"q^{{{i}}}")
                  for i, x in enumerate(c.coeffs) if x]
        if len(qterms) > 1:
            return False, "(" + _signed_join(_latex_term(x, q) for x, q in qterms) + ")" + body
        (c, q), = qterms
        body = q + body
    s = str(c)
    negative = s.startswith("-")
    if negative:
        s = s[1:]
    return negative, ("" if s == "1" and body else s) + body


def _signed_join(terms) -> str:
    out = ""
    for negative, text in terms:
        if negative:
            out += "-"
        elif out:
            out += "+"
        out += text
    return out or "0"


def emit_latex(p) -> str:
    return _signed_join(
        _latex_term(c, "".join(_latex_factor(p.basis, a, t, p.m) for a, t in factors))
        for factors, c in p.walk())


# -- JSON --------------------------------------------------------------------

def _json_term(basis: str, factors, m: int) -> dict:
    if basis == "word":
        (w, _), = factors
        return {"word": format_word(w, m)}
    return {"factors": [[format_word(a, m), t] for a, t in factors]}


def _poly_ring(p) -> str:
    """The ring tag of all of p's coefficients: an int or Fraction among
    q-polynomials or GF(p) elements is read in their ring; an empty p is Q."""
    tags = {ring_tag(c) for c in p.terms.values()} - {"Q"}
    if len(tags) > 1:
        raise TypeError(f"coefficients from different rings: {', '.join(sorted(tags))}")
    return tags.pop() if tags else "Q"


def emit_json(p) -> dict:
    ring = _poly_ring(p)
    terms = [{"coeff": str(c), **_json_term(p.basis, factors, p.m)}
             for factors, c in p.walk()]
    return {"ring": ring, "basis": p.basis, "alphabet": p.m, "terms": terms}


def parse_json(doc: dict):
    ring = doc["ring"]
    m = doc.get("alphabet", 2)
    if doc["basis"] == "word":
        terms = {}
        for t in doc["terms"]:
            terms[parse_word(t["word"], m)] = coeff_from_str(t["coeff"], ring)
        return FreePoly(terms, m)
    if doc["basis"] == "pbw":
        terms = {}
        for t in doc["terms"]:
            mono = tuple((parse_word(a, m), e) for a, e in t["factors"])
            terms[validate_monomial(mono)] = coeff_from_str(t["coeff"], ring)
        return PBWPoly(terms, m)
    raise ValueError(f"unknown basis {doc['basis']!r}")


CHUNK_TERMS = 256


def emit(p, fmt: str) -> None:
    """Write p in the format fmt ("text", "latex" or "json") and a newline
    to standard output.  Text goes out ``CHUNK_TERMS`` terms per write; LaTeX
    and JSON are built whole first.  An unknown format raises ValueError
    before anything is written."""
    if fmt == "text":
        # looked up per call, so that contextlib.redirect_stdout captures it
        out = sys.stdout
        terms = p.text_terms()
        out.write(" + ".join(islice(terms, CHUNK_TERMS)) or "0")
        while chunk := " + ".join(islice(terms, CHUNK_TERMS)):
            out.write(" + ")
            out.write(chunk)
        out.write("\n")
    elif fmt == "latex":
        print(emit_latex(p))
    elif fmt == "json":
        print(json.dumps(emit_json(p)))
    else:
        raise ValueError(f"unknown format {fmt!r}")
