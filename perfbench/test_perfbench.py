"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The checks must accept the program's real output and reject it with one
coefficient changed or one term dropped; a failing job must make a run
report it and exit nonzero; a traced run must report exactly the per-layer
metrics BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ncbinom import cli  # noqa: E402

B = checks.Brackets()
KILL = {(1, 1, 2), (1, 2, 2)}


def program(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def bump_coefficient(text):
    """Add 1 to the first nonzero coefficient that starts a line or follows ': '."""
    m = next(m for m in re.finditer(r"(^|: )(-?\d+)(?=\*| \+|$)", text, flags=re.M)
             if m.group(2) != "0")
    return text[:m.start(2)] + str(int(m.group(2)) + 1) + text[m.end(2):]


def drop_term(text):
    """Drop the last term of the last line that has two, or else the last line."""
    lines = text.rstrip("\n").split("\n")
    for i in reversed(range(len(lines))):
        head, sep, body = lines[i].rpartition(": ") if ": " in lines[i] else ("", "", lines[i])
        terms = checks.split_top(body)
        if len(terms) > 1:
            lines[i] = head + sep + " + ".join(terms[:-1])
            return "\n".join(lines) + "\n"
    return "\n".join(lines[:-1]) + "\n"


def _product(seed=5):
    return workloads.random_product(random.Random(seed))


CASES = {
    "binom": (("binom", "--degree", "4"),
              lambda out: checks.check_pbw_equals(out, 2, checks.all_words_of_length(2, 4), B)),
    "binom3": (("binom", "--alphabet", "3", "--degree", "3"),
               lambda out: checks.check_pbw_equals(out, 3, checks.all_words_of_length(3, 3), B)),
    "sh": (("sh", "--degree", "2,3", "--pbw"),
           lambda out: checks.check_pbw_equals(out, 2, checks.all_words((3, 2)), B)),
    "gf": (("binom", "--degree", "5", "--ring", "GF:3"),
           lambda out: checks.check_pbw_equals(out, 2, checks.all_words_of_length(2, 5), B, 3)),
    "product": (("pbw", "--expr", _product()[0], "--alphabet", str(_product()[1])),
                lambda out: checks.check_pbw_equals(out, _product()[1], _product()[2], B)),
    "bell": (("bell", "--n", "4"), lambda out: checks.check_bell(out, 4, False, B)),
    "dual": (("bell", "--n", "4", "--dual"), lambda out: checks.check_bell(out, 4, True, B)),
    "weyl": (("quotient", "weyl", "--d", "5"), lambda out: checks.check_weyl(out, 5)),
    "kill": (("quotient", "kill", "--set", "112,122", "--expr", "(E(1)+E(2))^5"),
             lambda out: checks.check_kill(out, 2, checks.all_words_of_length(2, 5), KILL, B)),
    "qbell": (("qbell", "--n", "4"), lambda out: checks.check_qbell(out, 4)),
    "ore": (("ore", "--n", "4", "--sigma", "grading"),
            lambda out: checks.check_ore_grading(out, 4)),
    "blumen": (("quotient", "blumen", "--n", "5"), lambda out: checks.check_blumen(out, 5)),
    "qcomm": (("quotient", "qcomm-bell", "--n", "6", "--k", "3"),
              lambda out: checks.check_qcomm(out, 6, 3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_accepts_output_and_rejects_planted_errors(case):
    argv, check = CASES[case]
    out = program(*argv)
    assert check(out) is None
    assert check(bump_coefficient(out)) is not None
    assert check(drop_term(out)) is not None


def test_verify_check():
    good = "".join(f"{s}: PASS (n cases)\n" for s in checks.VERIFY_SUITES)
    assert checks.check_verify_all(good) is None
    assert checks.check_verify_all(good.replace("faa: PASS", "faa: FAIL")) is not None
    assert checks.check_verify_all(drop_term(good)) is not None


def test_bracket_expander_hand_cases():
    assert checks.Brackets().element((1, 2)) == {(1, 2): 1, (2, 1): -1}
    assert checks.Brackets().element((1, 1, 2)) == {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}


def test_rewrite_inverts_expansion():
    f = checks.poly_mul({(1,): 2, (2, 1): -1}, {(1, 2, 2): 3, (2,): 1})
    assert B.expand(B.rewrite(f)) == f


def test_q_arithmetic():
    assert checks.q_fact(3) == [1, 2, 2, 1]
    assert checks.q_div(checks.q_fact(4), checks.q_fact(2)) == [1, 2, 3, 3, 2, 1]
    assert checks.q_div([1, 0, 1], [1, 1]) is None
    assert checks.parse_q("(-1*q + 2*q^3)") == [0, -1, 0, 2]


def test_workloads_are_deterministic_and_bounded():
    for name in workloads.WORKLOADS:
        a = [j.argv for j in workloads.jobs_for(name, 7)]
        assert a == [j.argv for j in workloads.jobs_for(name, 7)]
    for seed in range(50):
        _, m, want = workloads.random_product(random.Random(seed))
        assert m in (2, 3) and want and max(map(len, want)) <= 9


def _planted(monkeypatch, jobs):
    monkeypatch.setitem(workloads.WORKLOADS, "closed", lambda seed, brackets: jobs)
    monkeypatch.setattr(run, "OUT", HERE / "out" / "test")


def test_failing_job_is_reported_and_exits_nonzero(monkeypatch, capsys):
    wrong = workloads.Job(("binom", "--degree", "3"), CASES["binom"][1])
    crash = workloads.Job(("lyndon", "--max-len", "0"), lambda out: None)
    _planted(monkeypatch, [wrong, crash])
    assert run.main(["--workload", "closed", "--seconds", "0.1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["correct"] is False


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    jobs = [workloads.Job(*CASES["binom"]), workloads.Job(*CASES["qbell"])]
    _planted(monkeypatch, jobs)
    assert run.main(["--workload", "closed", "--seconds", "0.1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(metrics["trace.total_s"]["value"], rel=1e-6)
    assert metrics["pbw.enumerate_pbw_monomials_s"]["value"] > 0
    assert metrics["rings.qpoly_mul_calls"]["value"] > 0
    assert not hasattr(cli.pbw_rewrite, "__wrapped__")  # originals restored
