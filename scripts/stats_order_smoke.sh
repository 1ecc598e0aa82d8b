#!/usr/bin/env bash
# `critics_cli run --stats-interval` must write the same file on every
# run: two cold runs of one grid into fresh cache dirs must give
# byte-identical interval JSONL, with each job's rows in one block and
# the blocks in grid order (apps outer, variants inner), whatever order
# the pool threads finished the jobs in.
#
# Usage: scripts/stats_order_smoke.sh   (after cmake --build build)
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${CRITICS_CLI:-build/examples/critics_cli}"
[ -x "$CLI" ] || { echo "build $CLI first (cmake --build build)"; exit 1; }

APPS="Acrobat,Office,mcf"
VARIANTS="baseline,critic"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/critics-stats-order.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

for k in 1 2; do
    CRITICS_CACHE_DIR="$WORK/cache$k" "$CLI" run --apps "$APPS" \
        --variants "$VARIANTS" --insts 30000 --stats-interval 5000 \
        --stats-out "$WORK/stats$k.jsonl" >"$WORK/run$k.log"
done
cmp "$WORK/stats1.jsonl" "$WORK/stats2.jsonl"

python3 - "$WORK/stats1.jsonl" "$APPS" "$VARIANTS" <<'PY'
import json, sys
path, apps, variants = sys.argv[1], sys.argv[2], sys.argv[3]
want = [a + "/" + v for a in apps.split(",") for v in variants.split(",")]
blocks = []
for line in open(path):
    label = json.loads(line)["label"]
    if not blocks or blocks[-1] != label:
        blocks.append(label)
if blocks != want:
    sys.exit("label blocks %s, want grid order %s" % (blocks, want))
print("stats order ok: %d label blocks in grid order" % len(blocks))
PY
