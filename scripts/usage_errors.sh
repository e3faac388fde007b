#!/usr/bin/env bash
# usage_errors: the exit-2 (usage error) contract of two CLIs.
#
#   scripts/usage_errors.sh report build/capstan-report
#   scripts/usage_errors.sh serve build/capstan-serve
#
# Runs a table of bad invocations against the binary and fails unless
# every one exits 2:
#  - report: every bad --scale, --tiles, --iterations and --preset
#    value. They reach driver::applyOption and the preset table
#    (report::presetOptions) while the flags are read, so a dry run
#    already refuses them; the same values, in range, must pass.
#  - serve: a --dataset-dir that is not a directory, which must stop
#    the daemon before it creates its socket, and the wire-limit flags
#    the daemon does not take (its limits are constants).
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 report|serve BINARY" >&2
    exit 2
fi
mode="$1"
bin="$2"
failed=0

# expect STATUS ARGS...: run the binary and compare its exit status.
expect() {
    local want="$1" got
    shift
    timeout 10 "$bin" "$@" >/dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "usage_errors: '$*' exited $got, want $want" >&2
        failed=1
    fi
}

case "$mode" in
report)
    for bad in "--scale 0" "--scale -1" "--scale abc" "--scale nan" \
               "--tiles 0" "--tiles 129" "--tiles 4.5" \
               "--iterations 0" "--iterations 1.5" \
               "--iterations 1000000001" "--preset huge"; do
        # shellcheck disable=SC2086
        expect 2 --study table10 $bad --dry-run
    done
    expect 0 --study table10 --scale 0.02 --tiles 128 --iterations 3 \
        --dry-run
    ;;
serve)
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
    expect 2 --socket "$dir/s.sock" --dataset-dir /nonexistent
    if [ -e "$dir/s.sock" ]; then
        echo "usage_errors: a refused daemon created its socket" >&2
        failed=1
    fi
    expect 2 --socket "$dir/s.sock" --max-request-bytes 1048576
    expect 2 --socket "$dir/s.sock" --max-request-depth 32
    ;;
*)
    echo "usage: $0 report|serve BINARY" >&2
    exit 2
    ;;
esac
exit "$failed"
