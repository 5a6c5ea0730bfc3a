"""Output checks that share no code with ncbinom.

Every check parses the text a job printed and compares it with a value the
benchmark computes from the paper's definitions, using only the arithmetic
below: sparse word polynomials (dict word -> coefficient), a bracket
expander for Lyndon-Shirshov elements, and integer polynomials in q (lists,
lowest degree first).  A check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial

# -- words and word polynomials ---------------------------------------------


def is_lyndon(w):
    """Nonempty and strictly smaller than each of its proper rotations."""
    return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def lyndon_factors(w):
    """Chen-Fox-Lyndon factorization by repeatedly taking the longest Lyndon prefix."""
    out = []
    while w:
        n = max(i for i in range(1, len(w) + 1) if is_lyndon(w[:i]))
        out.append(w[:n])
        w = w[n:]
    return out


def poly_add(acc, f, scale=1):
    for w, c in f.items():
        v = acc.get(w, 0) + scale * c
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)
    return acc


def poly_mul(f, g):
    out = {}
    for u, a in f.items():
        for v, b in g.items():
            w = u + v
            c = out.get(w, 0) + a * b
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return out


def all_words(counts):
    """Every word with counts[x-1] copies of letter x, coefficient 1."""
    words = [()]
    for x, c in enumerate(counts, start=1):
        grown = []
        for w in words:
            n = len(w) + c
            for pos in itertools.combinations(range(n), c):
                it, chosen = iter(w), set(pos)
                grown.append(tuple(x if i in chosen else next(it) for i in range(n)))
        words = grown
    return {w: 1 for w in words}


def all_words_of_length(m, d):
    return {w: 1 for w in itertools.product(range(1, m + 1), repeat=d)}


class Brackets:
    """Lyndon-Shirshov elements E_l = [E_u, E_v], v the longest proper Lyndon suffix of l."""

    def __init__(self):
        self._elem = {}
        self._mono = {(): {(): 1}}

    def element(self, lw):
        e = self._elem.get(lw)
        if e is None:
            if len(lw) == 1:
                e = {lw: 1}
            else:
                v = next(lw[i:] for i in range(1, len(lw)) if is_lyndon(lw[i:]))
                eu, ev = self.element(lw[:len(lw) - len(v)]), self.element(v)
                e = poly_add(poly_mul(eu, ev), poly_mul(ev, eu), -1)
            self._elem[lw] = e
        return e

    def monomial(self, mono):
        """Word expansion of E_{a1}^{t1} ... E_{ar}^{tr}, memoised on suffixes."""
        e = self._mono.get(mono)
        if e is None:
            (a, t), rest = mono[0], mono[1:]
            e = self.monomial(rest)
            for _ in range(t):
                e = poly_mul(self.element(a), e)
            self._mono[mono] = e
        return e

    def expand(self, pbw, modulus=None):
        out = {}
        for mono, c in pbw.items():
            poly_add(out, self.monomial(mono), c)
        if modulus is not None:
            out = {w: c % modulus for w, c in out.items() if c % modulus}
        return out

    def rewrite(self, f):
        """PBW coefficients of a word polynomial by eliminating its least word.

        The expansion of the monomial read off a word's Lyndon factors has
        that word as its least term with coefficient 1.
        """
        f = dict(f)
        out = {}
        while f:
            w = min(f)
            c = f[w]
            mono = _group(lyndon_factors(w))
            out[mono] = c
            poly_add(f, self.monomial(mono), -c)
        return out


def _group(factors):
    out = []
    for f in factors:
        if out and out[-1][0] == f:
            out[-1][1] += 1
        else:
            out.append([f, 1])
    return tuple((f, t) for f, t in out)


# -- integer polynomials in q -----------------------------------------------


def q_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def q_add(a, b):
    n = max(len(a), len(b))
    return q_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def q_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return q_trim(out)


def q_int(n, step=1):
    """(n)_{q^step} = 1 + q^step + ... + q^{step(n-1)}."""
    out = [0] * (step * (n - 1) + 1) if n else []
    for i in range(n):
        out[step * i] = 1
    return out


def q_fact(n, step=1):
    out = [1]
    for i in range(1, n + 1):
        out = q_mul(out, q_int(i, step))
    return out


def q_div(a, b):
    """Exact quotient a / b of integer polynomials with b monic; None if inexact."""
    a = list(a)
    if len(a) < len(b):
        return None if q_trim(a) else []
    quot = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        quot[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return None if q_trim(a) else q_trim(quot)


def q_shift(a, k):
    """q^k * a."""
    return [0] * k + list(a) if a else []


# -- parsing the program's text output ---------------------------------------


class BadOutput(ValueError):
    pass


def split_top(s, sep=" + "):
    """Split at sep outside parentheses."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and s.startswith(sep, i):
            parts.append(s[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(s[start:])
    return parts


_QTERM = re.compile(r"^(-?\d+(?:/\d+)?)?(?:\*?q(?:\^(\d+))?)?$")


def parse_rational(s):
    if not re.fullmatch(r"-?\d+(/\d+)?", s):
        raise BadOutput(f"bad coefficient {s!r}")
    v = Fraction(s)
    return v.numerator if v.denominator == 1 else v


def parse_q(s):
    """A q-polynomial as printed ('1 + q + 2*q^3', '-1*q', 'q^2', '0')."""
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if s == "0":
        return []
    out = []
    for part in s.split(" + "):
        m = _QTERM.match(part)
        if not part or not m:
            raise BadOutput(f"bad q-term {part!r}")
        c = parse_rational(m.group(1)) if m.group(1) else 1
        k = 0
        if "q" in part:
            k = int(m.group(2)) if m.group(2) else 1
        out = q_add(out, q_shift([c], k))
    return out


def parse_word(s):
    if s == "e":
        return ()
    if not s.isdigit():
        raise BadOutput(f"bad word {s!r}")
    return tuple(int(ch) for ch in s)


_FACTOR = re.compile(r"^E\(([0-9]+|e)\)(?:\^(\d+))?$")


def parse_sum(s, coeff, basis):
    """Parse 'c*E(..)... + ...' into {key: coeff}; basis 'pbw' or 'word'."""
    s = s.strip()
    if s == "0":
        return {}
    out = {}
    for term in split_top(s):
        cut = term.find("*E(")
        if cut < 0:
            if not term.endswith("*1") or basis != "pbw":
                raise BadOutput(f"bad term {term!r}")
            c, key = coeff(term[:-2]), ()
        else:
            c, body = coeff(term[:cut]), term[cut + 1:]
            factors = [_FACTOR.match(f) for f in body.split("*")]
            if not all(factors):
                raise BadOutput(f"bad term {term!r}")
            if basis == "word":
                if len(factors) != 1 or factors[0].group(2):
                    raise BadOutput(f"bad word term {term!r}")
                key = parse_word(factors[0].group(1))
            else:
                key = tuple((parse_word(f.group(1)), int(f.group(2) or 1))
                            for f in factors)
        if key in out:
            raise BadOutput(f"repeated term {term!r}")
        out[key] = c
    return out


def check_pbw_monomials(pbw, m):
    """Every key must be a PBW monomial: Lyndon factors, strictly decreasing, exponent >= 1."""
    for mono in pbw:
        for i, (a, t) in enumerate(mono):
            if t < 1 or not is_lyndon(a) or any(x < 1 or x > m for x in a):
                return f"bad PBW factor {a}^{t}"
            if i and not a < mono[i - 1][0]:
                return f"factors not decreasing in {mono}"
    return None


def _lines(text, n):
    lines = text.strip("\n").split("\n")
    if len(lines) != n:
        raise BadOutput(f"expected {n} lines, got {len(lines)}")
    return lines


def _label(line, label):
    if not line.startswith(label):
        raise BadOutput(f"expected {label!r}, got {line[:40]!r}")
    return line[len(label):]


def _first_diff(got, want):
    for key in sorted(set(got) | set(want), key=repr):
        if got.get(key, 0) != want.get(key, 0):
            return f"coefficient of {key}: got {got.get(key, 0)}, want {want.get(key, 0)}"
    return None


# -- checks, one per kind of job ---------------------------------------------

def guarded(fn):
    def check(text, *args):
        try:
            return fn(text, *args)
        except BadOutput as e:
            return str(e)
    check.__name__ = fn.__name__
    return check


@guarded
def check_pbw_equals(text, m, want_words, brackets, modulus=None):
    """PBW output whose bracket expansion must equal want_words (mod p if given)."""
    pbw = parse_sum(_lines(text, 1)[0], parse_rational, "pbw")
    bad = check_pbw_monomials(pbw, m)
    if bad:
        return bad
    if modulus is not None:
        if any(not 0 < c < modulus for c in pbw.values()):
            return "GF coefficient out of range"
        want_words = {w: c % modulus for w, c in want_words.items() if c % modulus}
    return _first_diff(brackets.expand(pbw, modulus), want_words)


@guarded
def check_kill(text, m, full_words, kill, brackets):
    """(E_1+E_2)^d in the PBW basis with every monomial holding a killed factor dropped."""
    pbw = parse_sum(_lines(text, 1)[0], parse_rational, "pbw")
    bad = check_pbw_monomials(pbw, m)
    if bad:
        return bad
    want = {mono: c for mono, c in brackets.rewrite(full_words).items()
            if not any(a in kill for a, _ in mono)}
    return _first_diff(pbw, want)


def bell_words(n):
    """B(n,k) = y B(n-1,k-1) + [x, B(n-1,k)] with x = 1, y = 2; returns [B(n,0..n)]."""
    x, y = {(1,): 1}, {(2,): 1}
    row = [{(): 1}]
    for i in range(1, n + 1):
        nxt = []
        for k in range(i + 1):
            b = poly_mul(y, row[k - 1]) if k >= 1 else {}
            if k < i:
                prev = row[k]
                poly_add(b, poly_mul(x, prev))
                poly_add(b, poly_mul(prev, x), -1)
            nxt.append(b)
        row = nxt
    return row


def dual_bell_words(n):
    """D(0) = 1, D(i+1) = D(i)(X+Y) - X D(i) with X = letter 2, Y = letter 1,
    split by the number k of letters 1."""
    step = {(2,): 1, (1,): 1}
    d = {(): 1}
    for _ in range(n):
        d = poly_add(poly_mul(d, step), poly_mul({(2,): 1}, d), -1)
    parts = [{} for _ in range(n + 1)]
    for w, c in d.items():
        parts[w.count(1)][w] = c
    return parts


@guarded
def check_bell(text, n, dual, brackets):
    want = dual_bell_words(n) if dual else bell_words(n)
    tag = "B*" if dual else "B"
    for k, line in enumerate(_lines(text, n + 1)):
        body = _label(line, f"{tag}({n},{k}): ")
        pbw = parse_sum(body, parse_rational, "pbw")
        bad = check_pbw_monomials(pbw, 2) or _first_diff(brackets.expand(pbw), want[k])
        if bad:
            return f"{tag}({n},{k}): {bad}"
    return None


def qbell_words(n):
    """(ad_q x + y)^n (1) with ad_q x (w) = x w - q^{|w|} w x; coefficients are q-lists."""
    f = {(): [1]}
    for _ in range(n):
        g = {}
        for w, c in f.items():
            for key, cc in (((1,) + w, c), (w + (1,), q_shift([-a for a in c], len(w))),
                            ((2,) + w, c)):
                v = q_add(g.get(key, []), cc)
                if v:
                    g[key] = v
                else:
                    g.pop(key, None)
        f = g
    return f


def _q_exact(c):
    if any(isinstance(a, Fraction) for a in c):
        raise BadOutput(f"non-integral q-coefficient {c}")
    return c


@guarded
def check_qbell(text, n):
    got = parse_sum(_lines(text, 1)[0], lambda s: _q_exact(parse_q(s)), "word")
    return _first_diff(got, qbell_words(n))


@guarded
def check_ore_grading(text, n):
    """sum_k coeff_k x^{n-k} = (x+y)^n over Q[q]<x,y>, coeff_k of degree k."""
    total = {}
    for k, line in enumerate(_lines(text, n + 1)):
        body = _label(line, f"coeff of x^{n - k}: ")
        for w, c in parse_sum(body, parse_q, "word").items():
            if len(w) != k:
                return f"coeff of x^{n - k} has a word of length {len(w)}"
            key = w + (1,) * (n - k)
            v = q_add(total.get(key, []), c)
            if v:
                total[key] = v
            else:
                total.pop(key, None)
    return _first_diff(total, {w: [1] for w in all_words_of_length(2, n)})


def weyl_closed(d):
    """d!/(t2! 2^t12 t12! t1!) on E_2^t2 E_12^t12 E_1^t1."""
    out = {}
    for t12 in range(d // 2 + 1):
        for t2 in range(d - 2 * t12 + 1):
            t1 = d - 2 * t12 - t2
            mono = tuple(p for p in (((2,), t2), ((1, 2), t12), ((1,), t1)) if p[1])
            out[mono] = factorial(d) // (factorial(t2) * 2 ** t12 * factorial(t12)
                                         * factorial(t1))
    return out


@guarded
def check_weyl(text, d):
    got = parse_sum(_lines(text, 1)[0], parse_rational, "pbw")
    return _first_diff(got, weyl_closed(d))


def blumen_closed(n):
    """(n)_q! / ((r)_q! (2)_q^s (s)_{q^2}! (t)_q!) for y^r h^s x^t, r + 2s + t = n."""
    out = {}
    for s in range(n // 2 + 1):
        for r in range(n - 2 * s + 1):
            t = n - 2 * s - r
            den = q_fact(r)
            for _ in range(s):
                den = q_mul(den, q_int(2))
            den = q_mul(q_mul(den, q_fact(s, 2)), q_fact(t))
            out[(r, s, t)] = q_div(q_fact(n), den)
    return out


@guarded
def check_blumen(text, n):
    want = blumen_closed(n)
    got = {}
    for line in _lines(text, len(want)):
        m = re.fullmatch(r"y\^(\d+) h\^(\d+) x\^(\d+): (.+)", line)
        if not m:
            raise BadOutput(f"bad line {line[:40]!r}")
        got[tuple(int(g) for g in m.groups()[:3])] = parse_q(m.group(4))
    return _first_diff(got, want)


def qcomm_closed(n, k):
    """(n)_q! / prod_i ((i)_q!)^{t_i} (t_i)_{q^i}! over t with sum t_i = k, sum i t_i = n."""
    out = {}

    def parts(rem_n, rem_k, smallest):
        if rem_k == 0:
            if rem_n == 0:
                yield ()
            return
        for i in range(smallest, rem_n + 1):
            for rest in parts(rem_n - i, rem_k - 1, i):
                yield (i,) + rest

    for word in parts(n, k, 1):
        den = [1]
        for i in set(word):
            t = word.count(i)
            for _ in range(t):
                den = q_mul(den, q_fact(i))
            den = q_mul(den, q_fact(t, i))
        out[word] = q_div(q_fact(n), den)
    return out


@guarded
def check_qcomm(text, n, k):
    want = qcomm_closed(n, k)
    got = {}
    for line in _lines(text, len(want)):
        mono, sep, body = line.partition(": ")
        syms = mono.split(" ")
        if not sep or not all(re.fullmatch(r"d\d+", x) for x in syms):
            raise BadOutput(f"bad line {line[:40]!r}")
        got[tuple(int(x[1:]) for x in syms)] = parse_q(body)
    return _first_diff(got, want)


VERIFY_SUITES = ("appendix", "blumen", "charp", "commutators", "cyclotomic", "faa",
                 "lemma42", "pbw", "qbell", "qcomm", "theorem-a", "theorem-b",
                 "theorem-c")


@guarded
def check_verify_all(text):
    names = []
    for line in _lines(text, len(VERIFY_SUITES)):
        m = re.fullmatch(r"([a-z0-9-]+): PASS \(.+\)", line)
        if not m:
            return f"suite did not pass: {line[:60]!r}"
        names.append(m.group(1))
    if sorted(names) != sorted(VERIFY_SUITES):
        return f"suites {names} != {list(VERIFY_SUITES)}"
    return None
