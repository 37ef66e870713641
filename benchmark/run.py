#!/usr/bin/env python3
"""Build the SubCoreSim benchmark from source, then run it.

Run from anywhere inside a checkout:

    python3 benchmark/run.py --workload fig10 --seed 0 --seconds 15 --trace 0

Configures benchmark/ into build-bench/ (Release) on first use, brings
the build up to date, and replaces itself with build-bench/scsim_bench
given the same arguments.  The last line scsim_bench prints on stdout
is the JSON result.  Build output goes to stderr; a failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, "build-bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build, "-j", jobs]]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(root, "benchmark"),
                         "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return 1
    bench = os.path.join(build, "scsim_bench")
    sys.stdout.flush()
    os.execv(bench, [bench] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
