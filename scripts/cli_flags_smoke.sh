#!/usr/bin/env bash
# Malformed numeric flags, unknown flags, missing values and missing
# positional arguments are usage errors: each must exit 2 with a
# one-line diagnostic naming the flag, before anything is simulated (no
# result store or manifest appears in the cache dir).  One accepted
# case checks that `bench --variants all` resolves like `run`.
#
# Usage: scripts/cli_flags_smoke.sh   (after cmake --build build)
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${CRITICS_CLI:-build/examples/critics_cli}"
[ -x "$CLI" ] || { echo "build $CLI first (cmake --build build)"; exit 1; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/critics-cli-flags.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# flag, then the full argument list.
check() {
    local flag="$1"; shift
    local rc=0
    CRITICS_CACHE_DIR="$WORK/cache" "$CLI" "$@" >"$WORK/out" 2>"$WORK/err" || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "'$*' exited $rc, want 2:"; cat "$WORK/out" "$WORK/err"; exit 1
    fi
    grep -q -- "$flag" "$WORK/err" || {
        echo "'$*' did not name $flag:"; cat "$WORK/out" "$WORK/err"; exit 1
    }
    [ "$(wc -l <"$WORK/err")" -eq 1 ] || {
        echo "'$*' did not report exactly one line:"; cat "$WORK/err"; exit 1
    }
}

# command word, flag, then the full argument list: the line must also
# name the command.
check_cmd() {
    local cmd="$1"; shift
    check "$@"
    grep -q -- "critics_cli $cmd" "$WORK/err" || {
        echo "'${*:2}' did not name the command $cmd:"; cat "$WORK/err"; exit 1
    }
}

# The full argument list must exit 0.
accept() {
    local rc=0
    CRITICS_CACHE_DIR="$WORK/cache" "$CLI" "$@" >"$WORK/out" 2>"$WORK/err" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "'$*' exited $rc, want 0:"; cat "$WORK/out" "$WORK/err"; exit 1
    fi
}

check --insts run --apps Acrobat --variants baseline --insts 20000abc
check --insts run --apps Acrobat --variants baseline --insts -1
check --insts run --apps Acrobat --variants baseline --insts 99999999999999999999
check --stats-interval run --apps Acrobat --stats-interval 5k
check --reps bench --quick --reps 3x
check --min-run lint --apps Acrobat --min-run ''
check --port serve --port 70000
check --max-age cache gc --max-age 99999999999999999d
check --max-bytes cache gc --max-bytes 12X
check --rel diff a.json b.json --rel nan
check --insts --app Acrobat --variant baseline --insts +5
check --insts run --apps Acrobat --variants baseline --insts 0
check --insts --app Acrobat --variant baseline --insts 0
check_cmd run --bogus run --bogus
check_cmd run --apps run --apps
check_cmd status '<job>' status

accept bench --quick --reps 1 --insts 20000 --variants all --out "$WORK/b.json"

if [ -e "$WORK/cache/results.jsonl" ] || [ -d "$WORK/cache/manifests" ]; then
    echo "a rejected flag still reached the runner:"; ls -R "$WORK/cache"
    exit 1
fi
echo "cli flags ok"
