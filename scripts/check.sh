#!/bin/sh
# check.sh — the repo's pre-merge gate: vet, formatting, build, and the
# full test suite under the race detector. `make check` runs this.
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

# contract-enforcing static analysis (determinism, panicsite, errwrap,
# obsguard; see DESIGN.md §10). Skip with NDE_SKIP_LINT=1 when in a hurry.
if [ "${NDE_SKIP_LINT:-0}" != "1" ]; then
    echo "==> nde-lint"
    go run ./cmd/nde-lint
fi

# gofmt gate over tracked sources; testdata is excluded because the lint
# golden-test fixtures are deliberately unformatted.
echo "==> gofmt -l"
unformatted=$(git ls-files '*.go' | grep -v testdata | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

# _e2ebench/ is its own Go module, so `go build ./...` never compiles it;
# vet it here so a rename of an entry point it imports fails the gate
# instead of the next benchmark run
echo "==> go vet (_e2ebench)"
(cd _e2ebench && go vet .)

# the benchmark's own self-tests: generator determinism, request
# round-trips, and a short traced run of every workload checked by its
# correctness oracles (about 15s)
echo "==> go test (_e2ebench)"
(cd _e2ebench && go test .)

echo "==> go test -race ./..."
go test -race ./...

# every benchmark once, no tests: catches a benchmark that no longer
# builds or runs (about 10s on 2 vCPU)
echo "==> go test -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x ./...

# short deterministic fuzz pass over the CSV reader: replays the checked-in
# corpus, then a couple of seconds of fresh mutation
echo "==> go test -fuzz FuzzReadCSV (2s)"
go test -run='^FuzzReadCSV$' -fuzz='^FuzzReadCSV$' -fuzztime=2s ./internal/frame/

# the same over nde-serve's inputs: the register fast path against
# encoding/json, then every POST /v1/* body against a live handler
echo "==> go test -fuzz FuzzDecodeRegister (2s)"
go test -run='^FuzzDecodeRegister$' -fuzz='^FuzzDecodeRegister$' -fuzztime=2s ./internal/serve/
echo "==> go test -fuzz FuzzServeHandler (2s)"
go test -run='^FuzzServeHandler$' -fuzz='^FuzzServeHandler$' -fuzztime=2s ./internal/serve/

# race-stress gate at the quick (time-budgeted) scale; `make stress` runs
# the full GOMAXPROCS sweep. Skip with NDE_SKIP_STRESS=1 when in a hurry.
if [ "${NDE_SKIP_STRESS:-0}" != "1" ]; then
    echo "==> scripts/stress.sh quick"
    sh scripts/stress.sh quick
fi

# live ops plane smoke test: real HTTP scrape of a running binary plus a
# clean interrupt shutdown. Skip with NDE_SKIP_SMOKE=1.
if [ "${NDE_SKIP_SMOKE:-0}" != "1" ]; then
    echo "==> scripts/ops_smoke.sh"
    sh scripts/ops_smoke.sh
    echo "==> scripts/serve_smoke.sh"
    sh scripts/serve_smoke.sh
fi

# opt-in: perf-regression gate — fresh benchmark run compared against the
# checked-in BENCH_*.json baselines, failing on >15% ns/op regression
# (refresh the baselines themselves with `make bench`)
if [ "${NDE_BENCH:-0}" = "1" ]; then
    echo "==> scripts/bench_diff.sh"
    sh scripts/bench_diff.sh
fi

echo "OK"
