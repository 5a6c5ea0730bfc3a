"""The benchmark's workloads: fixed ncbinom CLI jobs, each with an output check.

A job is one CLI invocation (the argv after ``ncbinom``) and a check that
takes the job's standard output and returns None or a reason it is wrong.
The only inputs drawn from the seed are the products in ``rewrite``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Callable[[str], "str | None"]

    @property
    def label(self):
        return " ".join(self.argv)


def _pbw_job(argv, m, want, brackets, modulus=None):
    return Job(tuple(argv), lambda out: checks.check_pbw_equals(out, m, want(), brackets, modulus))


def closed(seed, brackets):
    words = checks.all_words_of_length
    return [
        _pbw_job(["binom", "--degree", "9"], 2, lambda: words(2, 9), brackets),
        _pbw_job(["binom", "--alphabet", "3", "--degree", "5"], 3, lambda: words(3, 5), brackets),
        _pbw_job(["sh", "--degree", "5,5", "--pbw"], 2, lambda: checks.all_words((5, 5)), brackets),
        _pbw_job(["binom", "--degree", "7", "--ring", "GF:1000000007"], 2,
                 lambda: words(2, 7), brackets, modulus=1000000007),
    ]


def random_product(rng):
    """A product of three sums of words over 2 or 3 letters, total degree <= 9.

    Returns the --expr string, the alphabet size and the product expanded by
    the benchmark's own word arithmetic.
    """
    m = rng.choice((2, 3))
    factors, text = [], []
    for _ in range(3):
        terms, parts = {}, []
        for length in rng.sample((1, 2, 3), 2):
            w = tuple(rng.randint(1, m) for _ in range(length))
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            terms[w] = terms.get(w, 0) + c
            parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*E({''.join(map(str, w))})")
        factors.append({w: c for w, c in terms.items() if c})
        text.append("(" + " ".join(parts).lstrip("+ ") + ")")
    want = {(): 1}
    for f in factors:
        want = checks.poly_mul(want, f)
    return "*".join(text), m, want


def rewrite(seed, brackets):
    words = checks.all_words_of_length
    jobs = [
        _pbw_job(["pbw", "--expr", "(E(1)+E(2))^9"], 2, lambda: words(2, 9), brackets),
        _pbw_job(["pbw", "--expr", "(E(1)+E(2)+E(3))^5", "--alphabet", "3"], 3,
                 lambda: words(3, 5), brackets),
        _pbw_job(["pbw", "--expr", "(E(1)+E(2))^10"], 2, lambda: words(2, 10), brackets),
        Job(("bell", "--n", "9"), lambda out: checks.check_bell(out, 9, False, brackets)),
        Job(("bell", "--n", "9", "--dual"), lambda out: checks.check_bell(out, 9, True, brackets)),
        Job(("quotient", "weyl", "--d", "9"), lambda out: checks.check_weyl(out, 9)),
        Job(("quotient", "kill", "--set", "112,122", "--expr", "(E(1)+E(2))^9"),
            lambda out: checks.check_kill(out, 2, words(2, 9), {(1, 1, 2), (1, 2, 2)}, brackets)),
    ]
    rng = random.Random(seed)
    for _ in range(3):
        expr, m, want = random_product(rng)
        jobs.append(_pbw_job(["pbw", "--expr", expr, "--alphabet", str(m)], m,
                             lambda want=want: want, brackets))
    return jobs


def deformed(seed, brackets):
    return [
        Job(("qbell", "--n", "10"), lambda out: checks.check_qbell(out, 10)),
        Job(("ore", "--n", "8", "--sigma", "grading"),
            lambda out: checks.check_ore_grading(out, 8)),
        Job(("quotient", "blumen", "--n", "11", "--max-degree", "11"),
            lambda out: checks.check_blumen(out, 11)),
        Job(("quotient", "qcomm-bell", "--n", "10", "--k", "4"),
            lambda out: checks.check_qcomm(out, 10, 4)),
    ]


def verify(seed, brackets):
    return [Job(("verify", "all", "--max-degree", "4"), checks.check_verify_all)]


WORKLOADS = {"closed": closed, "rewrite": rewrite, "deformed": deformed, "verify": verify}


def jobs_for(workload, seed):
    return WORKLOADS[workload](seed, checks.Brackets())
