"""Command-line surface: enumeration, factorization, expansions, quotients,
and the identity verification driver.

Exit codes: 0 success, 1 identity failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import qsigma, quotients, verify
from .bell import bell_dual, bell_partial
from .emit import emit, parse_json
from .freepoly import FreePoly
from .pbw import pbw_rewrite, reduce_mod_p
from .rings import _is_prime
from .shuffle import binomial_ls, sh_closed_form, sh_pbw_char_p, sh_word
from .words import (cfl_factorize, format_word, is_lyndon, lyndon_enumerate,
                    parse_word, standard_factorization)

DEFAULT_DEGREE_CAP = 10

# Python prints an int of at most 4300 decimal digits by default.  A larger
# coefficient is refused: as a literal, as a power or product whose size is
# bounded in bits before it is computed, and in the result of ``pbw``.
COEFF_DIGITS = 4300
_COEFF_BOUND = 10 ** COEFF_DIGITS
_COEFF_BITS = COEFF_DIGITS * math.log2(10)


class UsageError(Exception):
    pass


# -- expression parser -------------------------------------------------------
# Grammar (matches the text emitter): expr := term (('+'|'-') term)*
# term := factor ('*' factor)* ; factor := atom ['^' int]
# atom := number | E(word) | '(' expr ')' ; word := e | digits | [a,b,...]

_TOKEN = re.compile(r"\s*(?:(E\((?:e|\d*|\[[\d,]*\])\))|(\d+/\d+|\d+)|([()+\-*^]))")


def _tokenize(s: str):
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise UsageError(f"cannot tokenize expression at: {s[pos:]!r}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, m, max_degree):
        self.toks = tokens
        self.i = 0
        self.m = m
        self.max_degree = max_degree

    def guard(self, degree, bits=0):
        """Refuse a word or product above the degree cap, or with a coefficient
        that may reach ``COEFF_DIGITS`` digits, before it is expanded."""
        if self.max_degree is not None:
            _degree_guard(degree, self.max_degree)
        if bits > _COEFF_BITS:
            raise UsageError(f"a coefficient could exceed {COEFF_DIGITS} digits")

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self) -> FreePoly:
        p = self.expr()
        if self.peek() is not None:
            raise UsageError(f"trailing tokens from {self.peek()!r}")
        return p

    def expr(self):
        p = self.signed_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.signed_term()
            p = p + q.scale(-1 if op == "-" else 1)
        return p

    def signed_term(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return self.term().scale(sign)

    def term(self):
        p = self.factor()
        while self.peek() == "*":
            self.take()
            q = self.factor()
            self.guard(_degree(p) + _degree(q), _bits(p) + _bits(q))
            p = p * q
        return p

    def factor(self):
        atom = self.atom()
        if self.peek() == "^":
            self.take()
            n = self.take()
            if n is None or not n.isdigit():
                raise UsageError("power must be a nonnegative integer")
            # a constant's exponent is capped as a letter's is: 3^33333 would
            # run 33333 products and give an int too long to print
            self.guard(max(_degree(atom), 1) * int(n), _bits(atom) * int(n))
            atom = atom ** int(n)
        return atom

    def atom(self):
        t = self.take()
        if t is None:
            raise UsageError("unexpected end of expression")
        if t.startswith("E("):
            w = _word_arg(t[2:-1], self.m)
            self.guard(len(w))
            return FreePoly.word(w, self.m)
        if t == "(":
            p = self.expr()
            if self.take() != ")":
                raise UsageError("missing closing parenthesis")
            return p
        if max(map(len, t.split("/"))) > COEFF_DIGITS:
            raise UsageError(f"a number has more than {COEFF_DIGITS} digits")
        if "/" in t:
            if int(t.partition("/")[2]) == 0:
                raise UsageError(f"zero denominator in {t!r}")
            return FreePoly.unit(self.m, Fraction(t))
        if t.isdigit():
            return FreePoly.unit(self.m, int(t))
        raise UsageError(f"unexpected token {t!r}")


def parse_expression(s: str, m: int = 2, max_degree: int = None) -> FreePoly:
    try:
        return _Parser(_tokenize(s), m, max_degree).parse()
    except RecursionError:
        raise UsageError("expression nested too deeply")


def _degree(f: FreePoly) -> int:
    return max((len(w) for w in f.terms), default=0)


def _bits(f: FreePoly) -> float:
    """log2 of the sum of |numerator| over f's coefficients, or of their
    largest denominator if that is larger.  A product with the factor f adds
    at most this many bits to integral coefficients, since none exceeds the
    sum; for a constant, c^n has exactly n times its bits."""
    cs = f.terms.values()
    return math.log2(max(sum(abs(c.numerator) for c in cs),
                         max((c.denominator for c in cs), default=1), 1))


# -- argument validation -----------------------------------------------------

# Smallest accepted value of each integer option, whichever command has it.
_LOWER_BOUNDS = {"alphabet": 1, "max_len": 1, "max_degree": 0, "degree": 0,
                 "n": 0, "k": 0, "d": 0}


def _check_bounds(args):
    for name, low in _LOWER_BOUNDS.items():
        value = getattr(args, name, None)
        if isinstance(value, int) and value < low:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def _parse_ring(spec: str, modular: bool):
    """None for --ring Q, else the prime p of GF:p (only where ``modular``)."""
    if spec == "Q":
        return None
    if not modular:
        raise UsageError(f"--ring {spec!r} is not supported by this command; it takes only Q")
    digits = spec[3:] if spec.startswith("GF:") else ""
    try:
        prime = digits.isdigit() and _is_prime(int(digits))
    except ValueError as e:
        raise UsageError(f"bad --ring {spec!r}: {e}")
    if not prime:
        raise UsageError(f"bad --ring {spec!r}; expected Q or GF:p with p prime")
    return int(digits)


def _word_arg(s: str, m: int):
    try:
        return parse_word(s, m)
    except ValueError as e:
        raise UsageError(str(e))


# -- command implementations -------------------------------------------------

def _degree_guard(degree: int, cap: int):
    if degree > cap:
        raise UsageError(
            f"total degree {degree} exceeds the cap {cap}; raise --max-degree")


def _print_poly(p, fmt):
    print(emit(p, fmt))


def cmd_lyndon(args):
    words = lyndon_enumerate(args.alphabet, args.max_len)
    print(" ".join(format_word(w, args.alphabet) for w in words))
    return 0


def cmd_factorize(args):
    w = _word_arg(args.word, args.alphabet)
    if not w:
        raise UsageError("cannot factorize the empty word")
    factors = cfl_factorize(w)
    print("cfl:", " ".join(format_word(f, args.alphabet) for f in factors))
    if is_lyndon(w) and len(w) >= 2:
        beta, gamma = standard_factorization(w)
        print("standard:", format_word(beta, args.alphabet),
              format_word(gamma, args.alphabet))
    return 0


def _parse_counts(s: str):
    try:
        counts = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise UsageError(f"bad degree spec {s!r}; expected i,j[,k...]")
    if any(c < 0 for c in counts):
        raise UsageError(f"bad degree spec {s!r}; counts must be >= 0")
    return counts


def cmd_sh(args):
    counts = _parse_counts(args.degree)
    if len(counts) < 2:
        raise UsageError("need at least two counts")
    _degree_guard(sum(counts), args.max_degree)
    p = args.modulus
    if p is not None:
        if not args.pbw:
            raise UsageError("--ring GF:p shows only the PBW form; add --pbw")
        if len(counts) != 2 or sum(counts) != p or 0 in counts:
            raise UsageError("GF:p shuffle display expects two positive counts summing to p")
        _print_poly(sh_pbw_char_p(counts[0], p), args.format)
    elif args.pbw:
        _print_poly(sh_closed_form(counts), args.format)
    else:
        _print_poly(sh_word(counts), args.format)
    return 0


def cmd_binom(args):
    if args.alphabet < 2:
        raise UsageError("--alphabet must be >= 2")
    _degree_guard(args.degree, args.max_degree)
    poly = binomial_ls(args.alphabet, args.degree)
    if args.modulus is not None:
        poly = reduce_mod_p(poly, args.modulus)
    _print_poly(poly, args.format)
    return 0


def cmd_pbw(args):
    poly = pbw_rewrite(parse_expression(args.expr, args.alphabet, args.max_degree))
    if any(abs(c.numerator) >= _COEFF_BOUND or c.denominator >= _COEFF_BOUND
           for c in poly.terms.values()):
        raise UsageError(f"a coefficient has more than {COEFF_DIGITS} digits")
    if args.modulus is not None:
        try:
            poly = reduce_mod_p(poly, args.modulus)
        except ZeroDivisionError as e:
            raise UsageError(str(e))
    _print_poly(poly, args.format)
    return 0


def cmd_bell(args):
    _degree_guard(args.n, args.max_degree)
    ks = [args.k] if args.k is not None else list(range(args.n + 1))
    for k in ks:
        fn = bell_dual if args.dual else bell_partial
        poly = fn(args.n, k)
        label = f"B*({args.n},{k})" if args.dual else f"B({args.n},{k})"
        print(f"{label}: ", end="")
        _print_poly(poly, args.format)
    return 0


def cmd_qbell(args):
    _degree_guard(args.n, args.max_degree)
    if args.k is not None:
        parts = qsigma.bell_partials(args.n, qsigma.grading_sigma)
        _print_poly(qsigma.partial_at(parts, args.k), args.format)
    else:
        _print_poly(qsigma.qbell(args.n), args.format)
    return 0


# model: (options it needs, options it may take); the others here are refused
_QUOTIENT_OPTIONS = {"weyl": (("d",), ()), "blumen": (("n",), ()),
                     "qcomm-bell": (("n", "k"), ()), "kill": (("set", "expr"), ("alphabet",))}


def cmd_quotient(args):
    if args.model in ("blumen", "qcomm-bell") and args.format != "text":
        raise UsageError(f"quotient {args.model} has only text output")
    required, optional = _QUOTIENT_OPTIONS[args.model]
    if any(getattr(args, name) in (None, "") for name in required):
        raise UsageError(f"quotient {args.model} needs "
                         + " and ".join(f"--{name}" for name in required))
    extra = sorted({f"--{name}" for req, opt in _QUOTIENT_OPTIONS.values() for name in req + opt
                    if name not in required + optional and getattr(args, name) is not None})
    if extra:
        raise UsageError(f"quotient {args.model} does not take {', '.join(extra)}")
    if args.model == "weyl":
        _degree_guard(args.d, args.max_degree)
        _print_poly(quotients.weyl_binomial(args.d), args.format)
        return 0
    if args.model == "blumen":
        _degree_guard(args.n, args.max_degree)
        for (r, s, t), c in sorted(quotients.blumen_binomial(args.n).items()):
            print(f"y^{r} h^{s} x^{t}: {c}")
        return 0
    if args.model == "qcomm-bell":
        _degree_guard(args.n, args.max_degree)
        terms = sorted(quotients.qcomm_bell_closed(args.n, args.k).items())
        for word, c in terms:
            mono = " ".join(f"d{i}" for i in word) or "1"
            print(f"{mono}: {c}")
        if not terms:
            print("0")
        return 0
    m = 2 if args.alphabet is None else args.alphabet
    # split at the commas between words, not those inside a word's [a,b,...]
    kill = {_word_arg(w, m) for w in re.split(r",(?![^\[]*\])", args.set)}
    for w in kill:
        if not is_lyndon(w):
            raise UsageError(f"{format_word(w, m)} is not a Lyndon word")
    f = parse_expression(args.expr, m, args.max_degree)
    _print_poly(quotients.kill_project(pbw_rewrite(f), kill), args.format)
    return 0


def _operator_from_spec(path: str, kind: str, sigma=None):
    try:
        with open(path) as fh:
            spec = json.load(fh)
        if spec.get("alphabet", 2) != 2:
            raise ValueError(f"alphabet {spec['alphabet']!r}; ore works over 2 letters")
        images = {}
        for x, doc in spec["images"].items():
            if doc["ring"] not in ("Q", "Q[q]"):
                raise ValueError(f"image of {x} is over {doc['ring']}; "
                                 f"ore works over Q and Q[q]")
            image = images[int(x)] = parse_json(doc)
            if not isinstance(image, FreePoly) or image.m != 2:
                raise ValueError(f"image of {x} is not a word polynomial over 2 letters")
        if kind == "endomorphism":
            return qsigma.endomorphism(images)
        return qsigma.gen_derivation(images, sigma)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise UsageError(f"cannot read {kind} spec {path!r}: {e}")


def cmd_ore(args):
    _degree_guard(args.n, args.max_degree)
    if args.sigma_spec:
        sigma = _operator_from_spec(args.sigma_spec, "endomorphism")
    elif args.sigma == "grading":
        sigma = qsigma.grading_sigma
    else:
        sigma = qsigma.identity
    if args.delta_spec:
        delta = _operator_from_spec(args.delta_spec, "derivation", sigma)
    else:
        delta = qsigma.ad_sigma(FreePoly.letter(1, 2), sigma)
    coeffs = qsigma.ore_binomial(args.n, sigma, delta)
    for k, c in enumerate(coeffs):
        print(f"coeff of x^{args.n - k}: ", end="")
        _print_poly(c, args.format)
    return 0


def cmd_verify(args):
    if args.suite == "all":
        names = sorted(verify.SUITES)
    else:
        if args.suite not in verify.SUITES:
            raise UsageError(f"unknown suite {args.suite!r}; "
                             f"choose from {', '.join(sorted(verify.SUITES))} or all")
        names = [args.suite]
    failed = False
    for name in names:
        ok, detail = verify.run_suite(name, args.max_degree)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failed = True
    return 1 if failed else 0


# -- argument wiring ---------------------------------------------------------

def _add_common(sp, modular=False):
    sp.add_argument("--ring", default="Q", help="Q or GF:p (p prime)" if modular else "Q")
    sp.add_argument("--format", default="text", choices=["text", "latex", "json"])
    sp.add_argument("--max-degree", type=int, default=DEFAULT_DEGREE_CAP)
    sp.set_defaults(modular=modular)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ncbinom",
        description="Exact noncommutative binomial expansions in the "
                    "Lyndon-Shirshov PBW basis")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lyndon", help="enumerate Lyndon words")
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--max-len", type=int, required=True)
    sp.set_defaults(fn=cmd_lyndon)

    sp = sub.add_parser("factorize", help="Chen-Fox-Lyndon and standard factorization")
    sp.add_argument("--word", required=True)
    sp.add_argument("--alphabet", type=int, default=2)
    sp.set_defaults(fn=cmd_factorize)

    sp = sub.add_parser("sh", help="shuffle type polynomial")
    sp.add_argument("--degree", required=True, help="letter counts i,j[,k...]")
    sp.add_argument("--pbw", action="store_true", help="emit in the PBW basis")
    _add_common(sp, modular=True)
    sp.set_defaults(fn=cmd_sh)

    sp = sub.add_parser("binom", help="full multinomial expansion in the PBW basis")
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--degree", type=int, required=True)
    _add_common(sp, modular=True)
    sp.set_defaults(fn=cmd_binom)

    sp = sub.add_parser("pbw", help="rewrite a word-basis expression into the PBW basis")
    sp.add_argument("--expr", required=True,
                    help="e.g. \"2*E(21)+E(12)\" or \"(E(1)+E(2))^3\"")
    sp.add_argument("--alphabet", type=int, default=2)
    _add_common(sp, modular=True)
    sp.set_defaults(fn=cmd_pbw)

    sp = sub.add_parser("bell", help="partial Bell differential polynomials (PBW basis)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--dual", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_bell)

    sp = sub.add_parser("qbell", help="q-Bell differential polynomials over Q[q]")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int)
    _add_common(sp)
    sp.set_defaults(fn=cmd_qbell)

    sp = sub.add_parser("quotient", help="structured quotient expansions")
    sp.add_argument("model", choices=list(_QUOTIENT_OPTIONS))
    sp.add_argument("--d", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--set", help="comma-separated Lyndon generators to kill")
    sp.add_argument("--expr")
    sp.add_argument("--alphabet", type=int)
    _add_common(sp)
    sp.set_defaults(fn=cmd_quotient)

    sp = sub.add_parser("ore", help="binomial coefficients for xy = sigma(y)x + delta(y)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sigma", choices=["id", "grading"], default="id")
    sp.add_argument("--sigma-spec", help="JSON file with generator images")
    sp.add_argument("--delta-spec", help="JSON file with generator images")
    _add_common(sp)
    sp.set_defaults(fn=cmd_ore)

    sp = sub.add_parser("verify", help="run identity verification suites")
    sp.add_argument("suite", nargs="?", default="all")
    sp.add_argument("--max-degree", type=int, default=6)
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # argparse 3.10-3.12 parses ``--opt=--`` as an empty list
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise UsageError(f"--{name.replace('_', '-')} expects one value")
        _check_bounds(args)
        if hasattr(args, "ring"):
            args.modulus = _parse_ring(args.ring, args.modular)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
