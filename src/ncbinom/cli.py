"""Command-line surface: enumeration, factorization, expansions, quotients,
and the identity verification driver.

The command line is read against one table, ``COMMANDS``, which also gives
the text of ``-h``/``--help``.  An option is spelled ``--flag value`` or
``--flag=value``, by its full name or a unique prefix of it; given twice, the
last value counts.

Exit codes: 0 success (help included), 1 identity failure, 2 usage error,
printed as one ``error:`` line on stderr, 141 standard output closed by its
reader (128 + SIGPIPE).
"""

from __future__ import annotations

import math
import os
import re
import sys
import types
from fractions import Fraction

from . import qsigma, quotients, verify
from .bell import bell_dual, bell_partial
from .emit import emit, parse_json
from .freepoly import FreePoly
from .pbw import pbw_rewrite, reduce_mod_p
from .rings import _is_prime
from .shuffle import binomial_ls, sh_closed_form, sh_word
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
            # give an int too long to print
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


def _q_ring(spec: str):
    """The --ring of a command that works over Q only: None."""
    if spec != "Q":
        raise UsageError(f"--ring {spec!r} is not supported by this command; it takes only Q")


def _gf_ring(spec: str):
    """None for --ring Q, else the prime p of GF:p."""
    if spec == "Q":
        return None
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
    return _emit_reduced(sh_closed_form(counts) if args.pbw else sh_word(counts), args)


def cmd_binom(args):
    if args.alphabet < 2:
        raise UsageError("--alphabet must be >= 2")
    _degree_guard(args.degree, args.max_degree)
    return _emit_reduced(binomial_ls(args.alphabet, args.degree), args)


def cmd_pbw(args):
    poly = pbw_rewrite(parse_expression(args.expr, args.alphabet, args.max_degree))
    if any(abs(c.numerator) >= _COEFF_BOUND or c.denominator >= _COEFF_BOUND
           for c in poly.terms.values()):
        raise UsageError(f"a coefficient has more than {COEFF_DIGITS} digits")
    return _emit_reduced(poly, args)


def _emit_reduced(poly, args):
    """Emit the exact poly, or over GF:p its coefficients reduced mod p; a
    denominator that p divides is a usage error."""
    if args.ring is not None:
        try:
            poly = reduce_mod_p(poly, args.ring)
        except ZeroDivisionError as e:
            raise UsageError(str(e))
    emit(poly, args.format)
    return 0


def cmd_bell(args):
    _degree_guard(args.n, args.max_degree)
    ks = [args.k] if args.k is not None else list(range(args.n + 1))
    fn, name = (bell_dual, "B*") if args.dual else (bell_partial, "B")
    for k in ks:
        emit(fn(args.n, k), args.format, f"{name}({args.n},{k})")
    return 0


def cmd_qbell(args):
    _degree_guard(args.n, args.max_degree)
    emit(qsigma.qbell_closed(args.n, args.k), args.format)
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
        emit(quotients.weyl_binomial(args.d), args.format)
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
    emit(quotients.kill_project(pbw_rewrite(parse_expression(args.expr, m, args.max_degree)),
                                kill), args.format)
    return 0


def _operator_from_spec(path: str, kind: str, sigma=None):
    import json
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
    if args.sigma and args.sigma_spec:
        raise UsageError("--sigma and --sigma-spec both give sigma; pass one")
    _degree_guard(args.n, args.max_degree)
    if args.sigma_spec:
        sigma = _operator_from_spec(args.sigma_spec, "endomorphism")
    elif args.sigma == "grading":
        sigma = qsigma.grading_sigma
    else:
        sigma = qsigma.identity
    if args.delta_spec:
        delta = _operator_from_spec(args.delta_spec, "derivation", sigma)
        coeffs = qsigma.ore_binomial(args.n, sigma, delta)
    elif args.sigma_spec:
        coeffs = qsigma.ore_binomial(args.n, sigma, qsigma.ad_sigma(FreePoly.letter(1, 2), sigma))
    else:
        # a built-in pair keeps the sigma-Leibniz law by construction
        coeffs = qsigma.ore_closed(args.n, sigma)
    for k, c in enumerate(coeffs):
        emit(c, args.format, f"coeff of x^{args.n - k}")
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


# -- argument table ----------------------------------------------------------
# Each command maps to (function, help, arguments).  An argument maps its name
# to (kind, default, help): a name without dashes is a positional, filled in
# order.  A kind is a reader of one string (``int``, ``str``, a ring reader), a
# tuple of choices, or ``bool`` for a flag that takes no value.  A default of
# REQUIRED marks an argument that must be given; a string default is read as a
# given value would be.

REQUIRED = object()


def _common(modular=False):
    """--ring, --format and --max-degree; --ring reads to the prime p of GF:p,
    which only a ``modular`` command takes, or to None for Q."""
    return {"--ring": (_gf_ring, "Q", "Q or GF:p (p prime)") if modular else (_q_ring, "Q", "Q"),
            "--format": (("text", "latex", "json"), "text", None),
            "--max-degree": (int, DEFAULT_DEGREE_CAP, None)}


COMMANDS = {
    "lyndon": (cmd_lyndon, "enumerate Lyndon words",
               {"--alphabet": (int, 2, None), "--max-len": (int, REQUIRED, None)}),
    "factorize": (cmd_factorize, "Chen-Fox-Lyndon and standard factorization",
                  {"--word": (str, REQUIRED, None), "--alphabet": (int, 2, None)}),
    "sh": (cmd_sh, "shuffle type polynomial", {
        "--degree": (str, REQUIRED, "letter counts i,j[,k...]"),
        "--pbw": (bool, False, "emit in the PBW basis"), **_common(modular=True)}),
    "binom": (cmd_binom, "full multinomial expansion in the PBW basis", {
        "--alphabet": (int, 2, None), "--degree": (int, REQUIRED, None),
        **_common(modular=True)}),
    "pbw": (cmd_pbw, "rewrite a word-basis expression into the PBW basis", {
        "--expr": (str, REQUIRED, 'e.g. "2*E(21)+E(12)" or "(E(1)+E(2))^3"'),
        "--alphabet": (int, 2, None), **_common(modular=True)}),
    "bell": (cmd_bell, "partial Bell differential polynomials (PBW basis)", {
        "--n": (int, REQUIRED, None), "--k": (int, None, None), "--dual": (bool, False, None),
        **_common()}),
    "qbell": (cmd_qbell, "q-Bell differential polynomials over Q[q]", {
        "--n": (int, REQUIRED, None), "--k": (int, None, None), **_common()}),
    "quotient": (cmd_quotient, "structured quotient expansions", {
        "model": (tuple(_QUOTIENT_OPTIONS), REQUIRED, None),
        "--d": (int, None, None), "--n": (int, None, None), "--k": (int, None, None),
        "--set": (str, None, "comma-separated Lyndon generators to kill"),
        "--expr": (str, None, None), "--alphabet": (int, None, None), **_common()}),
    "ore": (cmd_ore, "binomial coefficients for xy = sigma(y)x + delta(y)", {
        "--n": (int, REQUIRED, None), "--sigma": (("id", "grading"), None, None),
        "--sigma-spec": (str, None, "JSON file with generator images"),
        "--delta-spec": (str, None, "JSON file with generator images"), **_common()}),
    "verify": (cmd_verify, "run identity verification suites", {
        "suite": (str, "all", f"{', '.join(sorted(verify.SUITES))} or all"),
        "--max-degree": (int, 6, None)}),
}


def _read(name, kind, value):
    if isinstance(kind, tuple):
        if value not in kind:
            raise UsageError(f"argument {name}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, kind))})")
        return value
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}")


def _parse_args(argv):
    """The arguments of a command line, with the command's function as
    ``fn``; or None once help is printed."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        print(_help())
        return None
    if argv[0] not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    fn, _, specs = COMMANDS[argv[0]]
    values = {name: kind(default) if isinstance(default, str) and callable(kind) else default
              for name, (kind, default, _) in specs.items()}
    positionals = [name for name in specs if not name.startswith("-")]
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-h":
            token = "--help"
        if not token.startswith("--"):
            if not positionals:
                raise UsageError(f"unrecognized arguments: {token}")
            name = positionals.pop(0)
            values[name] = _read(name, specs[name][0], token)
            continue
        flag, eq, value = token.partition("=")
        # an exact name first, then a unique prefix of one
        found = [flag] if flag in specs else [
            name for name in (*specs, "--help") if len(flag) > 2 and name.startswith(flag)]
        if len(found) != 1:
            raise UsageError(f"ambiguous option: {flag} could match {', '.join(found)}"
                             if found else f"unrecognized arguments: {token}")
        flag = found[0]
        if flag == "--help":
            print(_help(argv[0]))
            return None
        kind = specs[flag][0]
        if kind is bool:
            if eq:
                raise UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"argument {flag}: expected one argument")
        values[flag] = _read(flag, kind, value)
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    args = types.SimpleNamespace(fn=fn, **{name.lstrip("-").replace("-", "_"): value
                                           for name, value in values.items()})
    _check_bounds(args)
    return args


def _help(command=None):
    """The usage of one command, or of them all, from ``COMMANDS``."""
    if command is None:
        lines = ["usage: ncbinom COMMAND [options]", "",
                 "Exact noncommutative binomial expansions in the Lyndon-Shirshov PBW basis.",
                 "", "commands:"]
        lines += [f"  {name:<10} {about}" for name, (_, about, _) in COMMANDS.items()]
        lines += ["", "Run 'ncbinom COMMAND --help' for the options of one command."]
        return "\n".join(lines)
    _, about, specs = COMMANDS[command]
    heads, notes, usage = [], [], [f"usage: ncbinom {command}"]
    for name, (kind, default, text) in specs.items():
        var = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
               else name.lstrip("-").replace("-", "_").upper())
        positional = not name.startswith("-")
        if positional:
            usage.append(var if default is REQUIRED else f"[{var}]")
        heads.append(var if positional else name if kind is bool else f"{name} {var}")
        note = ("(required)" if default is REQUIRED
                else f"(default: {default})" if default not in (None, False) else "")
        notes.append(" ".join(filter(None, (text, note))))
    heads.append("-h, --help")
    notes.append("show this help and exit")
    width = max(map(len, heads))
    return "\n".join([" ".join(usage + ["[options]"]), "", about, "", "arguments:"]
                     + [f"  {head:<{width}}  {note}".rstrip() for head, note in zip(heads, notes)])


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = args.fn(args) if args else 0
        # a closed pipe shows here, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed standard output: stop quietly, as a SIGPIPE
        # would, and send what is still buffered to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
