#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload backbone-seq --seed 11 --seconds 15 --trace 0

Run from the root of a checkout. The benchmark executable is built with
dune into $CARGO_TARGET_DIR (default: _build), then exec'd with the same
arguments; its last line of standard output is the JSON result. Build
output goes to standard error. If the build fails (for instance when the
mvpn sources are not there), this exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or "_build")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
