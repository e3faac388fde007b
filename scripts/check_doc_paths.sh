#!/usr/bin/env bash
# Docs hygiene, three checks:
#
# 1. Path check (always): fail if any markdown doc references a repo
#    file path that no longer exists. Keeps docs/ARCHITECTURE.md's
#    source map honest as code moves. A "path reference" is a
#    backtick-quoted token starting with a known top-level directory
#    (src/, tests/, docs/, examples/, scripts/, tools/, data/,
#    .github/) or a top-level *.md / *.json file. Tokens containing
#    globs, spaces, or placeholders are skipped. `path:line`
#    references check the path part only. Code comments count too:
#    every *.md a comment under src/, tests/, or examples/ names must
#    exist, resolved from the repo root.
#
# 2. Name check (always): fail if a markdown doc names deleted code.
#    Every backtick-quoted C++ name in docs/*.md and README.md that is
#    qualified (`a::b`) or called (`f()`, `f(args)`) must have its
#    last component (`b`, `f`) appear as a whole word somewhere under
#    src/, benchmark/ or tools/.
#
# 3. Command check (with `--commands [build_dir]`): extract every
#    documented capstan-run / capstan-report command line (a code
#    line whose first token is one of the binaries, optionally
#    prefixed ./build/, with backslash continuations joined) and
#    dry-run it against the built binaries (--dry-run validates
#    flags, runs nothing, writes nothing), so documented commands
#    can't rot. Exits 77 (ctest's skip code) with a notice when a
#    binary is not built. build_dir defaults to <repo>/build.
#
# Run from anywhere; checks the repo the script lives in.

set -u
repo="$(cd "$(dirname "$0")/.." && pwd)"

check_commands=0
build_dir="$repo/build"
if [ "${1:-}" = "--commands" ]; then
    check_commands=1
    [ -n "${2:-}" ] && build_dir="$2"
fi

missing="$(
    for doc in "$repo"/docs/*.md "$repo"/README.md; do
        [ -f "$doc" ] || continue
        grep -o '`[^`]*`' "$doc" | sed 's/^`//; s/`$//' | sort -u |
        while IFS= read -r token; do
            case "$token" in
                *'*'*|*' '*|*'<'*|*'{'*|*'$'*) continue ;;
                report.json|report.csv|metrics.csv) continue ;; # generated artifacts
                src/*|tests/*|docs/*|examples/*|scripts/*|tools/*|data/*|.github/*) ;;
                */*) continue ;;
                *.md|*.json) ;;
                *) continue ;;
            esac
            path="${token%%:*}"
            if [ ! -e "$repo/$path" ]; then
                echo "MISSING: $path (referenced by ${doc#"$repo"/})"
            fi
        done
    done
    words="$(mktemp)"
    grep -rhoIE '[A-Za-z_][A-Za-z0-9_]*' \
        "$repo/src" "$repo/benchmark" "$repo/tools" | sort -u > "$words"
    for doc in "$repo"/docs/*.md "$repo"/README.md; do
        [ -f "$doc" ] || continue
        grep -o '`[^`]*`' "$doc" | sed 's/^`//; s/`$//' | sort -u |
        grep -E '^~?[A-Za-z_][A-Za-z0-9_]*(::~?[A-Za-z_][A-Za-z0-9_]*)*(\([^()]*\))?$' |
        grep -E '::|\(' |
        while IFS= read -r token; do
            name="${token%%(*}"
            name="${name##*::}"
            name="${name#\~}"
            grep -qxF -- "$name" "$words" ||
                echo "UNKNOWN NAME: $token (named by ${doc#"$repo"/})"
        done
    done
    rm -f "$words"
    cd "$repo" &&
    grep -rnE --include='*.cpp' --include='*.hpp' '\.md\b' \
        src tests examples |
    while IFS= read -r hit; do
        where="$(printf '%s\n' "$hit" | cut -d: -f1,2)"
        printf '%s\n' "${hit#*:*:}" |
        grep -oE '(//|/\*|^[[:space:]]*\*).*' |
        grep -oE '[A-Za-z0-9_./-]+\.md\b' |
        while IFS= read -r path; do
            [ -e "$path" ] ||
                echo "MISSING: $path (cited in a comment at $where)"
        done
    done
)"

if [ -n "$missing" ]; then
    echo "$missing"
    echo "check_doc_paths: stale file or code references found" >&2
    exit 1
fi
echo "check_doc_paths: all referenced paths and code names exist"

[ "$check_commands" = 1 ] || exit 0

for prog in capstan-run capstan-report; do
    if [ ! -x "$build_dir/$prog" ]; then
        echo "check_doc_paths: $build_dir/$prog not built;" \
             "skipping the documented-command check (77)"
        exit 77
    fi
done

failed=0
cmd_log="$(mktemp)"
trap 'rm -f "$cmd_log"' EXIT
for doc in "$repo"/docs/*.md "$repo"/README.md; do
    [ -f "$doc" ] || continue
    # Join backslash continuations, then keep lines whose first token
    # is a driver binary (optionally ./build/-prefixed or after a $).
    sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$doc" |
    grep -E '^[[:space:]]*(\$[[:space:]]+)?(\./build/)?capstan-(run|report)([[:space:]]|$)' |
    sed -E 's/^[[:space:]]*(\$[[:space:]]+)?(\.\/build\/)?//' |
    sed -E 's/[[:space:]]+#.*$//' |
    sort -u |
    while IFS= read -r cmd; do
        # shellcheck disable=SC2086
        set -- $cmd
        prog="$1"; shift
        if ! "$build_dir/$prog" "$@" --dry-run >/dev/null 2>&1; then
            echo "BROKEN COMMAND (${doc#"$repo"/}): $cmd"
        fi
    done > "$cmd_log" 2>&1
    if [ -s "$cmd_log" ]; then
        cat "$cmd_log"
        failed=1
    fi
done

if [ "$failed" = 1 ]; then
    echo "check_doc_paths: documented commands no longer parse" >&2
    exit 1
fi
echo "check_doc_paths: all documented driver commands dry-run cleanly"
