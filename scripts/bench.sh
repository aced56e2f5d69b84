#!/bin/sh
# bench.sh — run the tracked benchmark series with -benchmem and record
# them as JSON (name, ns/op, allocs/op, B/op) so the perf trajectory is
# tracked PR-over-PR. Each file carries a "meta" header (git SHA, Go
# version, GOMAXPROCS, UTC date) so numbers from different machines and
# commits stay comparable. GOMAXPROCS is the value the benchmarks actually
# ran with: the -N suffix `go test` appends to benchmark names (no suffix
# means 1). Four series are emitted: the importance/pipeline
# hot paths (BENCH_importance.json), the what-if fan-out (BENCH_whatif.json),
# the exact-vs-IVF neighbor-search gate (BENCH_neighbor.json, which also
# records the recall@10 of the IVF run), and the delta-vs-rebuild
# incremental-maintenance gate (BENCH_incremental.json). `make bench` runs
# this.
#
# Usage: sh scripts/bench.sh [importance-output.json]
#   NDE_BENCHTIME=2s   benchtime per benchmark (default 1s)
#   NDE_BENCH_FILTER   importance-series benchmark regexp override
#   NDE_BENCH_OUTDIR   directory for the series files (default repo root;
#                      bench_diff.sh points this at a temp dir)
set -eu
cd "$(dirname "$0")/.."

outdir="${NDE_BENCH_OUTDIR:-.}"
out="${1:-$outdir/BENCH_importance.json}"
filter="${NDE_BENCH_FILTER:-BenchmarkAblation|BenchmarkMCShapleyParallel|BenchmarkKNNShapley|BenchmarkKNNPredictBatch|BenchmarkPipelineRunObs}"
benchtime="${NDE_BENCHTIME:-1s}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

git_sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go_version="$(go version | awk '{print $3}')"
run_date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# run_bench FILTER OUTPUT — run one benchmark series and write its JSON
run_bench() {
    echo "==> go test -bench '$1' -benchmem -benchtime $benchtime ."
    go test -run '^$' -bench "$1" -benchmem -benchtime "$benchtime" . | tee "$tmp"

    awk -v git_sha="$git_sha" -v go_version="$go_version" -v run_date="$run_date" '
BEGIN { gomaxprocs = 1; body = "" }
/^Benchmark/ {
    name = $1
    if (match(name, /-[0-9]+$/)) {   # the -GOMAXPROCS suffix
        gomaxprocs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    ns = ""; bytes = ""; allocs = ""; recall = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "recall@10") recall = $i
    }
    if (ns == "") next
    if (body != "") body = body ",\n"
    body = body sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
    if (bytes != "")  body = body sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") body = body sprintf(", \"allocs_per_op\": %s", allocs)
    if (recall != "") body = body sprintf(", \"recall_at_10\": %s", recall)
    body = body "}"
}
END {
    printf "{\n"
    printf "  \"meta\": {\"git_sha\": \"%s\", \"go_version\": \"%s\", \"gomaxprocs\": %s, \"date\": \"%s\"},\n", git_sha, go_version, gomaxprocs, run_date
    print "  \"benchmarks\": ["
    print body
    print "  ]\n}"
}
' "$tmp" > "$2"

    echo "==> wrote $2"
}

run_bench "$filter" "$out"
run_bench "^BenchmarkWhatIf$" "$outdir/BENCH_whatif.json"
run_bench "^BenchmarkNeighborTopK$" "$outdir/BENCH_neighbor.json"
run_bench "^BenchmarkIncremental$" "$outdir/BENCH_incremental.json"
