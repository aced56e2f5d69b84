#!/bin/sh
# bench_diff.sh — the perf-regression gate: re-run the tracked benchmark
# series into a temp directory and compare each benchmark's ns/op against
# the checked-in BENCH_*.json baselines. Fails when any benchmark regresses
# by more than the threshold (default 15%), or when a baseline entry has no
# fresh counterpart (GONE: the benchmark was retired or renamed), so a
# benchmark cannot silently drop out of the gate — retire or rename one
# together with its baseline row. A benchmark present only in the fresh
# run (NEW) is reported but does not fail; record it with `make bench`.
# `make bench-diff` runs this; scripts/check.sh runs it when NDE_BENCH=1.
#
# Usage: sh scripts/bench_diff.sh
#   NDE_BENCH_DIFF_PCT=15   allowed ns/op regression percentage
#   NDE_BENCHTIME=1s        benchtime per benchmark (passed through)
set -eu
cd "$(dirname "$0")/.."

threshold="${NDE_BENCH_DIFF_PCT:-15}"

fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT

echo "==> fresh benchmark run (comparing against checked-in baselines, +${threshold}% ns/op allowed)"
NDE_BENCH_OUTDIR="$fresh" sh scripts/bench.sh

# extract NAME NS pairs from one of our generated JSON files (one
# benchmark object per line, a format bench.sh controls)
extract() {
    awk '
/"name":/ {
    line = $0
    sub(/.*"name": "/, "", line); name = line; sub(/".*/, "", name)
    line = $0
    sub(/.*"ns_per_op": /, "", line); ns = line; sub(/[^0-9.eE+-].*/, "", ns)
    print name, ns
}' "$1"
}

status=0
for base in BENCH_importance.json BENCH_whatif.json BENCH_neighbor.json BENCH_incremental.json; do
    if [ ! -f "$base" ]; then
        echo "--  $base: no checked-in baseline, skipping (run 'make bench' to record one)"
        continue
    fi
    echo "==> $base"
    extract "$base" > "$fresh/old.txt"
    extract "$fresh/$base" > "$fresh/new.txt"
    if ! awk -v threshold="$threshold" '
NR == FNR { old[$1] = $2; next }
{
    new[$1] = $2
    if (!($1 in old)) { printf "  NEW   %-55s %12.0f ns/op (no baseline)\n", $1, $2; next }
    pct = old[$1] > 0 ? ($2 - old[$1]) / old[$1] * 100 : 0
    verdict = "ok"
    if (pct > threshold) { verdict = "REGRESSION"; failed = 1 }
    printf "  %-5s %-55s %12.0f -> %12.0f ns/op (%+.1f%%)\n", verdict, $1, old[$1], $2, pct
}
END {
    for (name in old) if (!(name in new)) {
        printf "  GONE  %-55s (baseline has no fresh counterpart)\n", name
        failed = 1
    }
    exit failed ? 1 : 0
}' "$fresh/old.txt" "$fresh/new.txt"; then
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "bench_diff: ns/op regression beyond ${threshold}%, or a baseline benchmark is GONE — investigate; if intentional, refresh the baselines with 'make bench' in the same change" >&2
    exit 1
fi
echo "bench_diff: OK (no benchmark regressed more than ${threshold}%)"
