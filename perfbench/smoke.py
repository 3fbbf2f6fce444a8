#!/usr/bin/env python3
"""Smoke test for the benchmark, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Builds the benchmark, then runs every workload of BENCHMARK.json at
--size tiny (4 POPs x 1 VPN x 4 sites; 50 customers x 20 churn ops),
untraced and traced. Each run must exit 0, pass its own correctness
checks, and report exactly the metrics BENCHMARK.json names for its mode,
each with its unit and a finite value. As a negative control, a wrong
expected traffic fingerprint must make the backbone-seq and soak checks
fail. Exits non-zero on the first violation.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "11", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w["name"], trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = r["metrics"]
            if set(got) != set(wanted):
                failures.append(f"{w['name']} trace={trace}: metrics differ: "
                                f"missing {sorted(set(wanted) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted))}")
            for name, m in got.items():
                if m.get("unit") != wanted.get(name):
                    failures.append(f"{w['name']} {name}: unit {m.get('unit')!r}")
                if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
                    failures.append(f"{w['name']} {name}: value {m.get('value')!r}")
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                failures.append(f"{w['name']} trace={trace}: correct={r['correct']} "
                                f"attempted={r['attempted']} failed={r['failed']}")
            print(f"ok   {w['name']} trace={trace}: {len(got)} metrics, "
                  f"{r['attempted']} ops")
    # Negative control: the fingerprint check must be able to fail.
    for w in ("backbone-seq", "soak"):
        r = run(w, 0, "--expect-fingerprint", "delivered=0")
        if r["correct"] or r["failed"] == 0:
            failures.append(f"{w}: a wrong expected fingerprint was not caught")
        else:
            print(f"ok   {w}: wrong fingerprint caught ({r['failed']} failed)")
    if failures:
        sys.exit("FAIL\n" + "\n".join(failures))
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
