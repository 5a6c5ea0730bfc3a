#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of one source tree.

    python3 perfbench/steady.py

Each of the two sets runs every workload of BENCHMARK.json ten times, with
seeds 1 to 10, untraced, for BENCHMARK.json's run_seconds.  For every
end-to-end metric of every workload it prints each set's median and
quartiles, the spread (interquartile range over the median) and the drift
(the absolute change of the second set's median from the first's, as a share
of the first).  A metric agrees when both sets' spreads and the drift are
within its bound in BENCHMARK.json.  The share of failed jobs must also be
identical in the two sets.  Exits 1 if any comparison fails.  Results also
go to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in names}
    for s in range(SETS):
        for w in names:
            runs = []
            for i in range(RUNS):
                r = run_once(w, i + 1, spec["run_seconds"])
                runs.append(r)
                vals = " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {w} seed {i + 1}: {vals} "
                      f"failed {r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
            results[w].append(runs)

    ok = True
    report = {}
    for w, sets in results.items():
        report[w] = {}
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if len(set(shares)) > 1:
            ok = False
            print(f"{w}: failed share differs between sets: {shares}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first, second = per_set
            drift = abs(second["median"] - first["median"]) / first["median"]
            agree = max(first["spread"], second["spread"], drift) <= bound
            ok &= agree
            report[w][name] = {"sets": per_set, "drift": drift, "bound": bound,
                               "agree": agree}
            cells = "  ".join(f"med {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}] "
                              f"spread {p['spread']:.3f}" for p in per_set)
            print(f"{w:9s} {name:12s} {cells}  drift {drift:.3f}  bound {bound}  "
                  f"{'ok' if agree else 'NOT OK'}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
