"""Every top-level function and method of the package is reached by a CLI run.

A fresh interpreter starts a profiler, then imports ``ncbinom.cli`` and runs
in process every job of the benchmark's workloads (seeds 1-3), each
command's ``--help``, the commands the benchmark leaves out, JSON and LaTeX
output, ``--ring GF:p``, ``ore`` with Q and Q[q] spec files and ``verify
all``.  A function that none of these calls serves no user, so it fails the
test unless it is exempt below: public API in ``ncbinom.__all__``, a
protocol dunder (Python calls it for an operator, for printing, hashing or
comparison, so a class keeps its protocol whole), or an entry of ``EXEMPT``
with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ncbinom

PACKAGE = Path(ncbinom.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# unreached functions and methods that stay, each with the reason it stays
EXEMPT = {
    "emit.emit_json": "the tests build whole JSON documents with it to check the streamed output",
    "emit.emit_latex": "the tests build whole LaTeX with it to check the streamed output",
    "freepoly._shuffle_words": "the word shuffle behind shuffle_product, which is public API",
    "qsigma.sh_hat_apply": "perfbench/tracing.py resolves it; it goes with that span",
}

_TRACE = r"""
import contextlib, io, json, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


sys.setprofile(profile)
import ncbinom.cli

argvs, perfbench = json.loads(sys.argv[1]), sys.argv[2]
sys.path.insert(0, perfbench)
import workloads

for name in workloads.WORKLOADS:
    for seed in (1, 2, 3):
        argvs += [list(job.argv) for job in workloads.jobs_for(name, seed)]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ncbinom.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in reached})))
"""

_SPECS = {
    # Q[q]: sigma(x1) = q x1, sigma(x2) = x2; delta(x1) = 0, delta(x2) = x1
    "sigma_q": {"1": ("Q[q]", [{"coeff": "q", "word": "1"}]),
                "2": ("Q", [{"coeff": "1", "word": "2"}])},
    "delta": {"1": ("Q", []), "2": ("Q", [{"coeff": "1", "word": "1"}])},
    # Q: the swap of the two letters
    "sigma_swap": {"1": ("Q", [{"coeff": "1", "word": "2"}]),
                   "2": ("Q", [{"coeff": "1", "word": "1"}])},
}


def _argvs(tmp_path):
    spec = {}
    for name, images in _SPECS.items():
        spec[name] = str(tmp_path / f"{name}.json")
        Path(spec[name]).write_text(json.dumps({"alphabet": 2, "images": {
            x: {"ring": ring, "basis": "word", "alphabet": 2, "terms": terms}
            for x, (ring, terms) in images.items()}}))
    helps = [[cmd, "--help"] for cmd in ("lyndon", "factorize", "sh", "binom", "pbw",
                                         "bell", "qbell", "quotient", "ore", "verify")]
    formats = [[*cmd, "--format", fmt] for fmt in ("json", "latex")
               for cmd in (["binom", "--degree", "4"], ["sh", "--degree", "2,2"],
                           ["pbw", "--expr", "E(21)"], ["qbell", "--n", "4"], ["bell", "--n", "3"])]
    return [["--help"], *helps, *formats,
            ["lyndon", "--alphabet", "3", "--max-len", "4"], ["factorize", "--word", "21212"],
            ["sh", "--degree", "2,2"], ["sh", "--degree", "2,2", "--ring", "GF:3"],
            ["qbell", "--n", "4", "--k", "2"],
            ["ore", "--n", "4", "--sigma", "id"],
            ["binom", "--degree", "5", "--ring", "GF:5"],
            ["sh", "--degree", "2,3", "--pbw", "--ring", "GF:5"],
            ["pbw", "--expr", "(1/2*E(12)+E(2))^3", "--ring", "GF:7", "--format", "json"],
            ["ore", "--n", "4", "--sigma-spec", spec["sigma_q"], "--delta-spec", spec["delta"]],
            ["ore", "--n", "3", "--sigma-spec", spec["sigma_swap"]],
            ["verify", "all"]]


def _definitions():
    """{name: (file, first line)} of each top-level function and method; the
    first line of a decorated one is its first decorator's, as in its code."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        body = [(path.stem + ".", node) for node in ast.parse(path.read_text()).body]
        while body:
            prefix, node = body.pop()
            if isinstance(node, ast.ClassDef) and prefix.count(".") == 1:
                body += [(f"{prefix}{node.name}.", child) for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[prefix + node.name] = (str(path), first)
    return found


def _exempt_by_rule(name):
    _, *owner, leaf = name.split(".")
    if owner:
        return leaf.startswith("__") and leaf.endswith("__")
    return leaf in ncbinom.__all__


def test_every_function_is_reached_by_a_cli_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", _TRACE, json.dumps(_argvs(tmp_path)),
                           str(PERFBENCH)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    reached = {(os.path.realpath(f), line) for f, line in json.loads(done.stdout)}
    defs = _definitions()
    unreached = {name for name, (path, line) in defs.items()
                 if (os.path.realpath(path), line) not in reached}
    assert len(unreached) < len(defs) / 4, "the trace reached almost nothing: it is broken"
    stale = sorted(name for name in EXEMPT if name not in unreached)
    assert not stale, f"exempt but reached or gone: {stale}"
    dead = sorted(name for name in unreached - EXEMPT.keys() if not _exempt_by_rule(name))
    assert not dead, f"reached by no CLI run and not exempt: {dead}"
