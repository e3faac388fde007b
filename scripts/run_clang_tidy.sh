#!/usr/bin/env bash
# Run the curated .clang-tidy set over every first-party translation
# unit in the compilation database. Usage:
#
#   scripts/run_clang_tidy.sh <build-dir> [extra clang-tidy args...]
#
# The clang static analyzer gate (the lint_analyzer ctest) is this
# script with --checks='-*,clang-analyzer-*'
# --warnings-as-errors='clang-analyzer-*'.
#
# Exit codes: 0 clean, 1 findings, 2 usage error, 77 clang-tidy not
# installed (ctest interprets 77 as SKIP via SKIP_RETURN_CODE — local
# trees without clang-tidy stay green; CI installs it and enforces).
set -euo pipefail

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <build-dir> [clang-tidy args...]" >&2
    exit 2
fi
build_dir=$1
shift

repo_root=$(cd "$(dirname "$0")/.." && pwd)

if [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "run_clang_tidy: no compile_commands.json in $build_dir" \
         "(configure with CMake first)" >&2
    exit 2
fi

tidy=$(command -v clang-tidy || true)
if [ -z "$tidy" ]; then
    # Probe versioned names (Debian/Ubuntu install clang-tidy-NN).
    for ver in 20 19 18 17 16 15 14; do
        if command -v "clang-tidy-$ver" >/dev/null 2>&1; then
            tidy="clang-tidy-$ver"
            break
        fi
    done
fi
if [ -z "$tidy" ]; then
    echo "run_clang_tidy: clang-tidy not installed; skipping (77)" >&2
    exit 77
fi

# First-party sources only: tests link gtest, whose headers are not
# ours to fix.
mapfile -t sources < <(find "$repo_root/src" -name '*.cpp' | sort)

echo "run_clang_tidy: $tidy over ${#sources[@]} files"
status=0
"$tidy" -p "$build_dir" --quiet "$@" "${sources[@]}" || status=$?
if [ "$status" -ne 0 ]; then
    echo "run_clang_tidy: findings above (exit $status)" >&2
    exit 1
fi
echo "run_clang_tidy: clean"
