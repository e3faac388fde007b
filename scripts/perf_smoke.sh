#!/usr/bin/env bash
# perf_smoke: guard the simulation hot path's wall-clock.
#
# Times `capstan-report --all --preset quick --check` (the whole paper
# reproduction at bench-smoke scales, single-threaded so the number
# tracks the stepping engine rather than the host's core count) and
# fails when it regresses more than 2x against the reference recorded
# in BENCH_sweep.json. The 2x headroom absorbs CI-runner noise; a real
# hot path regression (stepping idle tiles or SpMUs again,
# reintroducing per-token allocation) blows well past it.
#
# On hosts that cannot produce a reference number — no python3, or a
# BENCH_sweep.json without a report_quick benchmark — the check skips
# (exit 77, ctest's SKIP_RETURN_CODE) instead of failing the suite:
# an unrelated host gap is not a perf regression.
#
# Usage: perf_smoke.sh [build-dir]   (default: build)
set -euo pipefail

skip() {
    echo "perf_smoke: SKIP — $1"
    exit 77
}

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

command -v python3 >/dev/null 2>&1 ||
    skip "python3 not found; cannot read the reference wall-clock"
[ -f "$repo_root/BENCH_sweep.json" ] ||
    skip "BENCH_sweep.json not found"

# Prints the jobs_1 wall-clock of the newest report_quick measurement.
ref_ms=$(python3 - "$repo_root/BENCH_sweep.json" <<'EOF'
import json
import sys

try:
    doc = json.load(open(sys.argv[1]))
except (OSError, ValueError):
    sys.exit(0)
for bench in doc.get("benchmarks", []):
    if bench.get("benchmark", "").startswith("report_quick"):
        try:
            print(int(bench["measurements"][-1]["wall_ms"]["jobs_1"]))
        except (KeyError, IndexError, TypeError, ValueError):
            pass
        break
EOF
)
[ -n "$ref_ms" ] ||
    skip "BENCH_sweep.json has no usable report_quick reference"

start_ns=$(date +%s%N)
"$build_dir/capstan-report" --all --preset quick --check --jobs 1 \
    --reference "$repo_root/data/paper_reference.json" \
    --markdown none --json none >/dev/null
end_ns=$(date +%s%N)
ms=$(((end_ns - start_ns) / 1000000))
budget_ms=$((ref_ms * 2))
echo "perf_smoke: serial: ${ms} ms (reference ${ref_ms} ms," \
     "budget ${budget_ms} ms)"
if [ "$ms" -gt "$budget_ms" ]; then
    echo "perf_smoke: FAIL — quick report wall-clock regressed >2x" \
         "against BENCH_sweep.json" >&2
    exit 1
fi
