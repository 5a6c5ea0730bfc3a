#!/usr/bin/env python3
"""Benchmark of the ncbinom command line, run from the root of a source tree.

    python3 perfbench/run.py --workload closed --seed 1 --seconds 32 --trace 0

With --trace 0 each job runs as a fresh ``python -m ncbinom.cli`` process,
one at a time (a closed loop with one client).  The jobs of the workload
run round-robin until the time is spent, always in whole rounds, with
fresh-interpreter imports of ``ncbinom.cli`` interleaved between them.  The
run reports:

    wall_s       sum over jobs of each job's median wall time
    peak_rss_mb  largest over jobs of each job's median peak resident memory
    setup_s      median wall time of a fresh interpreter importing ncbinom.cli

With --trace 1 the jobs run inside this process through ``ncbinom.cli.main``
(every ncbinom cache cleared before each job), alternating an untraced and
a traced pass, and the run reports the per-layer metrics of tracing.py.

The first output of every job is checked by checks.py; later repetitions
must be byte-identical to it.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every job passed, 1 when one failed and 2 when the tree holds no
ncbinom sources.  Raw samples and trace spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES_PER_ROUND = 4
IMPORT_PROBE = "import ncbinom.cli, sys; sys.stdout.write(ncbinom.cli.__file__)"


class OutputChecker:
    """Full check of a job's first output; a hash comparison for the rest.

    Counts attempted jobs, failed jobs (nonzero exit or wrong output) and,
    among the failed, those whose output was wrong.
    """

    def __init__(self, log=lambda msg: None):
        self.log = log
        self.first = {}  # job label -> (sha256, reason or None)
        self.attempted = self.failed = self.wrong = 0

    def _reason(self, job, out):
        digest = hashlib.sha256(out).hexdigest()
        if job.label not in self.first:
            self.first[job.label] = (digest, job.check(out.decode()))
        ref, reason = self.first[job.label]
        return "output differs from the job's first output" if digest != ref else reason

    def record(self, job, rc, out):
        """True if the job passed."""
        self.attempted += 1
        reason = f"exit code {rc}" if rc != 0 else self._reason(job, out)
        if reason:
            self.failed += 1
            self.wrong += rc == 0
            self.log(f"FAILED {job.label}: {reason}")
        return not reason


def child_env():
    """ncbinom from this tree, a fixed hash seed, and bytecode cached as in an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Spawner:
    """Client of spawn.py, which forks the jobs and reports their time and memory."""

    def __init__(self, env, errfile):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=errfile)

    def run(self, argv):
        """Returns (exit code, stdout bytes, wall seconds, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawn.py exited")
        head = json.loads(line)
        return head["rc"], self.proc.stdout.read(head["bytes"]), head["wall"], head["rss_mb"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def _continue(start, round_start, seconds):
    """Start another round only if one more like the last still fits."""
    now = time.perf_counter()
    return now + (now - round_start) - start <= seconds


def measure(jobs, seconds, spawner, log=lambda msg: None):
    """Untraced run: whole rounds of subprocess jobs with setup samples between them."""
    py = sys.executable
    checker = OutputChecker(log)
    walls = {j.label: [] for j in jobs}
    rss = {j.label: [] for j in jobs}
    setup = []
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i in range(len(jobs)):
            job = jobs[(i + rounds) % len(jobs)]
            rc, out, wall, mb = spawner.run([py, "-m", "ncbinom.cli", *job.argv])
            if checker.record(job, rc, out):
                walls[job.label].append(wall)
                rss[job.label].append(mb)
            # spread the round's setup samples evenly between its jobs
            for _ in range((i + 1) * SETUP_SAMPLES_PER_ROUND // len(jobs)
                           - i * SETUP_SAMPLES_PER_ROUND // len(jobs)):
                setup.append(spawner.run([py, "-c", IMPORT_PROBE])[2])
        rounds += 1
        if not _continue(start, round_start, seconds):
            break
    ok = [j.label for j in jobs if walls[j.label]]
    metrics = {
        "wall_s": {"value": sum(statistics.median(walls[k]) for k in ok), "unit": "s"},
        "peak_rss_mb": {"value": max((statistics.median(rss[k]) for k in ok), default=0.0),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    raw = {"rounds": rounds, "walls": walls, "rss_mb": rss, "setup": setup}
    return checker, metrics, raw


def _call_main(main, argv, tracer=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = tracer.span("cli.main", main, list(argv)) if tracer else main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crashing job is a failed job, not a crashed benchmark
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            rc = 1
    return rc, buf.getvalue().encode()


def measure_traced(jobs, seconds, log=lambda msg: None):
    """Traced run inside this process; returns the per-layer metrics of the median round."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ncbinom.cli as cli
    import_s = time.perf_counter() - start
    import tracing

    caches = tracing.lru_caches()
    expand_cache = sys.modules["ncbinom.pbw"].pbw_expand_monomial
    checker = OutputChecker(log)
    rounds = []

    def run(job, tracer=None):
        """Run a job with cold caches; returns (output, seconds in cli.main)."""
        for c in caches:
            c.cache_clear()
        t0 = time.perf_counter()
        rc, out = _call_main(cli.main, job.argv, tracer)
        seconds = time.perf_counter() - t0
        checker.record(job, rc, out)
        return out, seconds

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced = sum(run(job)[1] for job in jobs)
        tracer = tracing.Tracer()
        hits = lookups = entries = out_bytes = 0
        tracer.install()
        try:
            for job in jobs:
                out_bytes += len(run(job, tracer)[0])
                info = expand_cache.cache_info()
                hits += info.hits
                lookups += info.hits + info.misses
                entries = max(entries, sum(c.cache_info().currsize for c in caches))
        finally:
            tracer.uninstall()
        total = tracer.inclusive["cli.main"]
        m = {"cli.import_s": import_s}
        for _, _, name, kind in tracing.TARGETS:
            if kind == "count":
                m[name] = tracer.calls[name]
            else:
                m[f"{name}_s"] = tracer.inclusive[name]
        for name in ("freepoly.mul", "shuffle.coeff_closed_form", "rings.qpoly_mul"):
            m[f"{name}_calls"] = tracer.calls[name]
        enum_s = tracer.inclusive["pbw.enumerate_pbw_monomials"]
        m["pbw.enumerate_us_per_monomial"] = (1e6 * enum_s / tracer.monomials
                                              if tracer.monomials else 0.0)
        m["pbw.pbw_expand_monomial_hit_ratio"] = hits / lookups if lookups else 0.0
        m["emit.out_kb"] = out_bytes / 1024
        m["cache.entries"] = entries
        for suite in sorted(sys.modules["ncbinom.verify"].SUITES):
            m[f"verify.{suite}_s"] = tracer.inclusive[f"verify.{suite}"]
        for layer in tracing.LAYERS:
            m[f"{layer}.self_s"] = tracer.self_time[layer]
        m["trace.total_s"] = total
        m["trace.untraced_s"] = untraced
        m["trace.overhead_ratio"] = total / untraced
        rounds.append((m, tracer.spans))
        if not _continue(start, round_start, seconds):
            break
    # one whole round, so that its layer self times add up to its total
    metrics, spans = sorted(rounds, key=lambda r: r[0]["trace.total_s"])[(len(rounds) - 1) // 2]
    return checker, metrics, {"rounds": [m for m, _ in rounds], "spans": spans}


def preflight(env):
    """Exit 2 unless this tree's src/ holds the ncbinom that children will import."""
    if not (SRC / "ncbinom" / "cli.py").is_file():
        print(f"error: no ncbinom sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or Path(probe.stdout).resolve().parent != SRC / "ncbinom":
        print(f"error: cannot import ncbinom.cli from {SRC}: {probe.stderr.strip()}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    preflight(child_env())
    jobs = workloads.jobs_for(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    if args.trace:
        checker, values, raw = measure_traced(jobs, args.seconds, log)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        with open(stem.with_suffix(".stderr"), "wb") as errfile, \
                Spawner(child_env(), errfile) as spawner:
            checker, metrics, raw = measure(jobs, args.seconds, spawner, log)
    raw["jobs"] = [j.label for j in jobs]
    stem.with_suffix(".json").write_text(json.dumps(raw))
    print(json.dumps({"correct": checker.wrong == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
