#!/usr/bin/env bash
# identity_matrix: fingerprint 195 single runs for byte-identity checks.
#
# Runs `capstan-run <flags> --json --compact` for every point of a
# fixed matrix and prints one `sha256  flags` line per point, in a
# fixed order. The matrix is the 11 apps under 17 configurations at
# scale 0.3 on 16 tiles (a configuration may set its own tile count;
# `--tiles 128` drives every port of the largest shuffle network),
# followed by the 8 points of the benchmark's sim-long workload.
#
# The expected output is checked in as scripts/identity_matrix.expected,
# and CI fails unless a fresh run equals it, from the Release build and
# from the ASan+UBSan Debug build:
#
#   scripts/identity_matrix.sh build > matrix.txt
#   diff scripts/identity_matrix.expected matrix.txt
#
# A change that moves simulated results re-records the expected file in
# the same commit, as it re-records the goldens. Exits non-zero if any
# run fails.
#
# Usage: identity_matrix.sh BUILD_DIR
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
run="$1/capstan-run"
[ -x "$run" ] || { echo "identity_matrix: no $run" >&2; exit 2; }

apps="spmv spmv-coo spmv-csc conv pagerank pagerank-edge bfs sssp
      matadd spmspm bicgstab"

configs=(
    "--config capstan"
    "--config plasticine"
    "--config ideal"
    "--memtech ddr4"
    "--memtech hbm2"
    "--ordering fully"
    "--ordering address"
    "--ordering arbitrated"
    "--merge mrg0"
    "--merge none"
    "--merge mrg16 --tiles 5"
    "--allocator weak --hash linear"
    "--compression"
    "--queue-depth 8 --bandwidth-gbps 200"
    "--tiles 1"
    "--spmu-ideal --tiles 64"
    "--tiles 128"
)

sim_long=(
    "--app spmspm --scale 1.5"
    "--app sssp --scale 4 --tiles 64"
    "--app matadd --scale 4"
    "--app bicgstab --scale 1"
    "--app pagerank --scale 4 --tiles 64"
    "--app conv --scale 1"
    "--app spmv-coo --scale 4"
    "--app bfs --scale 4 --tiles 64"
)

# Prints `sha256  flags` for one point; the flags are word-split.
point() {
    local out
    # shellcheck disable=SC2086
    out=$("$run" $1 --json --compact)
    printf '%s  %s\n' "$(printf '%s' "$out" | sha256sum | cut -d' ' -f1)" \
        "$1"
}

for app in $apps; do
    for cfg in "${configs[@]}"; do
        tiles="--tiles 16"
        case "$cfg" in *--tiles*) tiles="" ;; esac
        point "--app $app --scale 0.3 $tiles $cfg"
    done
done
for flags in "${sim_long[@]}"; do
    point "$flags"
done
