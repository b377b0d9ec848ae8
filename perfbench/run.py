#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search|check --seed N \
        --seconds S --trace 0|1

It builds perfbench/bench.exe and the stoke CLI (the traced run's serve
daemon) with dune, then runs the benchmark, whose last line of standard
output is the JSON result.  Build output goes to standard error.  Exits
non-zero, without a result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BENCH = "_build/default/perfbench/bench.exe"


def main():
    if not os.path.isfile("dune-project"):
        print("run.py: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe",
             "./bin/stoke_cli.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode
    # A session of its own, so a timeout can stop the daemon and the
    # native workers along with the benchmark.
    proc = subprocess.Popen([BENCH, *sys.argv[1:]], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())
