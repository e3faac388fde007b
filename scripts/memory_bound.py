#!/usr/bin/env python3
"""Peak-memory ceilings for long simulations.

Runs each point below with `capstan-run` from a build tree and fails
when the child's peak resident set (ru_maxrss, read from os.wait4)
exceeds the point's bound:

- `--app matadd --scale 16`: the machine pulls each tile's tokens from
  a stream as its source stage consumes them, so a run's memory is its
  dataset plus the pipeline's queues. Building a phase's whole token
  stream up front again costs this point hundreds of megabytes.
- `--app spmspm --scale 4`: the write-out phase computes each product
  row when its stream reaches the row. Building the whole product
  first (8,992,371 entries) again costs this point 200 MB.

The kernel reports a child's peak as at least its parent's at exec
time, so each bound includes this interpreter (about 10 MB).

Usage: python3 scripts/memory_bound.py --build-dir BUILD
Exit status: 0 within every bound, 1 above one or when a run fails.
"""

import argparse
import os
import subprocess
import sys

# (capstan-run flags, bound in MiB, what a breach suggests)
POINTS = [
    (["--app", "matadd", "--scale", "16"], 64,
     # 266 MiB when each phase's tokens were built up front.
     "is a phase's token stream materialized again?"),
    (["--app", "spmspm", "--scale", "4"], 64,
     # 200.5 MiB when the whole reference product was built first.
     "is the whole SpMSpM product built again?"),
]


def peak_mib(binary, flags):
    """Run one point; return (exit code, peak RSS in MiB)."""
    cmd = [binary] + flags + ["--json", "--compact"]
    p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)  # Reaped here.
    return p.returncode, usage.ru_maxrss / 1024.0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True,
                    help="build tree holding capstan-run")
    args = ap.parse_args(argv)

    binary = os.path.join(args.build_dir, "capstan-run")
    failed = False
    for flags, max_mib, hint in POINTS:
        code, peak = peak_mib(binary, flags)
        print(f"{' '.join(flags)}: peak RSS {peak:.1f} MiB "
              f"(bound {max_mib} MiB)")
        if code != 0:
            print(f"capstan-run exited {code}", file=sys.stderr)
            failed = True
        elif peak > max_mib:
            print(f"peak RSS above the bound: {hint}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
