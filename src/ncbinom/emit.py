"""Text, LaTeX and JSON output for word-basis and PBW-basis polynomials.

Every format reads a ``freepoly.TermStream``: ``walk()``, the terms in key
order as (factors, coefficient), where a word w is the single factor (w, 1)
and a PBW monomial is its tuple of (Lyndon word, exponent) factors; ``m``;
``basis``; and ``ring``.  A stored ``SparseCombination`` sorts its terms; a
closed route's ``WordStream`` or ``PBWStream`` yields them in key order and
stores none.

- Text is ``str(p)``, its terms spelled by ``TermStream.text_terms``:
  ``2*E(12) + -1*E(2)*E(1)``, which the CLI's expression parser reads back.
- LaTeX spells a word-basis letter a as ``x_{a}`` and a PBW factor as
  ``E_{α}^{t}``; a coefficient of ±1 shows only its sign and a negative term
  joins with ``-``: ``3x_{1}x_{2}-x_{2}``, ``2E_{12}^{2}E_{1}-E_{2}``.
- JSON documents round-trip losslessly: {"ring": ..., "basis": "word"|"pbw",
  "alphabet": m, "terms": [...]} with coefficients rendered as strings.  The
  ring tag is ``p.ring``: a stored combination reads it from every
  coefficient (one q-polynomial makes it Q[q]); a stream declares it, so it
  is known before any term is.

``emit`` writes every format in chunks of ``CHUNK_TERMS`` terms, so the whole
printout of a large polynomial is never held at once; ``emit_latex`` and
``emit_json`` build the same terms whole.  ``json`` is imported only where
JSON is written.  Text and JSON are the byte-stable forms.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice

from .freepoly import FreePoly
from .pbw import PBWPoly, validate_monomial
from .rings import ModInt, QPoly
from .words import format_word, parse_word


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
        return QPoly()
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
            return False, "(" + "".join(_signed(_latex_term(x, q) for x, q in qterms)) + ")" + body
        (c, q), = qterms
        body = q + body
    s = str(c)
    negative = s.startswith("-")
    if negative:
        s = s[1:]
    return negative, ("" if s == "1" and body else s) + body


def _signed(terms):
    """Each (negative, text) term as a piece carrying its own sign; the
    first term shows only a minus."""
    first = True
    for negative, text in terms:
        yield ("-" if negative else "" if first else "+") + text
        first = False


def _latex_pieces(p):
    """The LaTeX of each term of p in key order, with its sign."""
    return _signed(
        _latex_term(c, "".join(_latex_factor(p.basis, a, t, p.m) for a, t in factors))
        for factors, c in p.walk())


def emit_latex(p) -> str:
    """The LaTeX of p, built whole; ``emit`` writes the same pieces."""
    return "".join(_latex_pieces(p)) or "0"


# -- JSON --------------------------------------------------------------------

def _json_term(basis: str, factors, m: int) -> dict:
    if basis == "word":
        (w, _), = factors
        return {"word": format_word(w, m)}
    return {"factors": [[format_word(a, m), t] for a, t in factors]}


def _json_head(p) -> dict:
    """p's document with no terms yet; raises TypeError on mixed rings."""
    return {"ring": p.ring, "basis": p.basis, "alphabet": p.m, "terms": []}


def _json_terms(p):
    """The JSON object of each term of p, in key order."""
    for factors, c in p.walk():
        yield {"coeff": str(c), **_json_term(p.basis, factors, p.m)}


def emit_json(p) -> dict:
    """The JSON document of p, built whole; ``emit`` writes the same terms."""
    doc = _json_head(p)
    doc["terms"].extend(_json_terms(p))
    return doc


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


def emit(p, fmt: str, label: str = None) -> None:
    """Write p in the format fmt ("text", "latex" or "json") and a newline
    to standard output, ``CHUNK_TERMS`` terms per write.  Each format is a
    head, its terms joined by a separator, and a tail; the JSON pieces are
    those of ``json.dumps(emit_json(p))``, whose separators are ``", "`` and
    ``": "``.  A label heads the text and LaTeX as ``label: `` and is the
    first key, ``"label"``, of the JSON document.  An unknown format or a
    mixed ring raises before anything is written."""
    head, tail, empty = "" if label is None else f"{label}: ", "\n", "0"
    if fmt == "text":
        pieces, sep = p.text_terms(), " + "
    elif fmt == "latex":
        pieces, sep = _latex_pieces(p), ""
    elif fmt == "json":
        import json
        doc = _json_head(p) if label is None else {"label": label, **_json_head(p)}
        # the document with an empty term list ends in "[]}"
        head, tail, empty = json.dumps(doc)[:-2], "]}\n", ""
        pieces, sep = map(json.dumps, _json_terms(p)), ", "
    else:
        raise ValueError(f"unknown format {fmt!r}")
    # looked up per call, so that contextlib.redirect_stdout captures it
    out = sys.stdout
    out.write(head + (sep.join(islice(pieces, CHUNK_TERMS)) or empty))
    while chunk := sep.join(islice(pieces, CHUNK_TERMS)):
        out.write(sep)
        out.write(chunk)
    out.write(tail)
