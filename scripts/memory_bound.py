#!/usr/bin/env python3
"""Peak-memory ceiling for one long simulation.

Runs `capstan-run --app matadd --scale 16` from a build tree and fails
when the child's peak resident set (ru_maxrss, read from os.wait4)
exceeds a fixed bound. The machine pulls each tile's tokens from a
stream as its source stage consumes them, so a run's memory is its
dataset plus the pipeline's queues. Building a phase's whole token
stream up front again costs this point hundreds of megabytes.

The kernel reports a child's peak as at least its parent's at exec
time, so the bound includes this interpreter (about 10 MB).

Usage: python3 scripts/memory_bound.py --build-dir BUILD
Exit status: 0 within the bound, 1 above it or when the run fails.
"""

import argparse
import os
import subprocess
import sys

POINT = ["--app", "matadd", "--scale", "16", "--json", "--compact"]
MAX_MIB = 64  # 266 MiB when each phase's tokens were built up front


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True,
                    help="build tree holding capstan-run")
    args = ap.parse_args(argv)

    binary = os.path.join(args.build_dir, "capstan-run")
    cmd = [binary] + POINT
    p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)  # Reaped here.
    peak_mb = usage.ru_maxrss / 1024.0
    print(f"{' '.join(POINT[:4])}: peak RSS {peak_mb:.1f} MiB "
          f"(bound {MAX_MIB} MiB)")
    if p.returncode != 0:
        print(f"capstan-run exited {p.returncode}", file=sys.stderr)
        return 1
    if peak_mb > MAX_MIB:
        print("peak RSS above the bound: is a phase's token stream "
              "materialized again?", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
