"""Words over a small ordered alphabet, Lyndon predicates and factorizations.

A word is a tuple of letters 1..m.  Python's tuple comparison is exactly the
lexicographic order used throughout: a proper left factor compares smaller,
otherwise the first differing letter decides.
"""

from __future__ import annotations

Word = tuple  # tuple of ints in 1..m


class EmptyWord(ValueError):
    pass


class NoFactorization(ValueError):
    pass


def is_lyndon(w: Word) -> bool:
    """True iff w is nonempty and strictly smaller than all proper suffixes."""
    n = len(w)
    if n == 0:
        return False
    return all(w < w[i:] for i in range(1, n))


def cfl_factorize(w: Word):
    """Chen-Fox-Lyndon factorization by Duval's algorithm.

    Returns the unique non-increasing list of Lyndon factors whose
    concatenation is w.
    """
    if not w:
        raise EmptyWord("cannot factorize the empty word")
    factors = []
    i, n = 0, len(w)
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        step = j - k
        while i <= k:
            factors.append(w[i:i + step])
            i += step
    return factors


def standard_factorization(w: Word):
    """st(w) = (beta, gamma) with gamma the lexicographically least proper suffix.

    Classically equivalent to "longest proper Lyndon right factor"
    (cross-checked in the tests).  Requires a composite Lyndon word.
    """
    if len(w) < 2:
        raise NoFactorization("single letters have no standard factorization")
    gamma = min(w[i:] for i in range(1, len(w)))
    beta = w[:len(w) - len(gamma)]
    return beta, gamma


def lyndon_enumerate(m: int, max_len: int):
    """All Lyndon words over {1..m} of length <= max_len, in increasing lex order.

    Duval-style successor iteration.
    """
    if m < 1 or max_len < 1:
        raise ValueError("need m >= 1 and max_len >= 1")
    out = []
    w = [1]
    while w:
        out.append(tuple(w))
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == m:
            w.pop()
        if w:
            w[-1] += 1
    return out


def multidegree(w: Word, m: int):
    """Per-letter counts of w as a tuple indexed by letter 1..m."""
    counts = [0] * m
    for c in w:
        counts[c - 1] += 1
    return tuple(counts)


def format_word(w: Word, m: int = 2) -> str:
    if not w:
        return "e"
    if m <= 9:
        return "".join(str(c) for c in w)
    return "[" + ",".join(str(c) for c in w) + "]"


def parse_word(s: str, m: int = 2) -> Word:
    if s in ("", "e"):
        return ()
    parts = s[1:-1].split(",") if s[:1] + s[-1:] == "[]" else list(s)
    if not all(p.isdigit() for p in parts):
        raise ValueError(f"bad word {s!r}; expected digits or [a,b,...]")
    w = tuple(int(p) for p in parts)
    for x in w:
        if not 1 <= x <= m:
            raise ValueError(f"letter {x} outside alphabet of size {m} in word {s!r}")
    return w
