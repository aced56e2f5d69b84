package nde

import (
	"time"

	"nde/internal/frame"
	"nde/internal/ml"
	"nde/internal/obs"
)

// This file wires the facade into the run ledger (obs.Ledger): every
// facade entry point appends exactly one "op" record per call — op name,
// wall-clock duration, input row count, worker count, neighbor-index
// cache outcome, and the nderr sentinel class when the call failed.
// Delegating wrappers (EstimateWithZorro -> ZorroAnalysis,
// LoadRecommendationLetters -> ScenarioFromData) record in
// the inner function only, preserving the one-record-per-call invariant.
//
// With no ledger installed the hooks cost one atomic load and allocate
// nothing, matching the obs no-op contract.

// errClass is the ledger-record spelling of ErrorClass (errors.go); the
// exported function is the single source of truth for class names so the
// ledger and the nde-serve error envelope can never drift apart.
func errClass(err error) string { return ErrorClass(err) }

// recordOp appends the facade-call ledger record. It is designed for
//
//	defer recordOp("Op", time.Now(), rows, workers, &err)
//
// at the top of an entry point with a named error return: the arguments
// are evaluated at entry (start time, input sizes) while the error is
// read at return. No-op and allocation-free when no ledger is installed.
func recordOp(op string, start time.Time, rows, workers int, errp *error) {
	if obs.ActiveLedger() == nil {
		return
	}
	var class string
	if errp != nil {
		class = errClass(*errp)
	}
	obs.RecordOp(op, time.Since(start), rows, workers, "", class)
}

// recordOpCache is recordOp for entry points that can attribute a
// neighbor-index cache outcome ("hit", "miss", or "").
func recordOpCache(op string, start time.Time, rows int, cache *string, errp *error) {
	if obs.ActiveLedger() == nil {
		return
	}
	var class string
	if errp != nil {
		class = errClass(*errp)
	}
	obs.RecordOp(op, time.Since(start), rows, 0, *cache, class)
}

// indexCacheOutcome samples the neighbor-index cache counters and returns
// a closure classifying what one intervening computation did: "hit",
// "miss", or "" when observability is off (the counters only move while
// obs is enabled) or nothing happened. Best-effort under concurrency —
// overlapping calls can misattribute each other's outcome, which is
// acceptable for a telemetry annotation.
func indexCacheOutcome() func() string {
	if !obs.Enabled() {
		return func() string { return "" }
	}
	hits := obs.Default().Counter("importance_neighbor_index_hits_total").Value()
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	return func() string {
		switch {
		case obs.Default().Counter("importance_neighbor_index_misses_total").Value() > misses:
			return "miss"
		case obs.Default().Counter("importance_neighbor_index_hits_total").Value() > hits:
			return "hit"
		default:
			return ""
		}
	}
}

// frameRows is a nil-safe row count for ledger records.
func frameRows(f *frame.Frame) int {
	if f == nil {
		return 0
	}
	return f.NumRows()
}

// datasetRows is a nil-safe dataset length for ledger records.
func datasetRows(d *ml.Dataset) int {
	if d == nil {
		return 0
	}
	return d.Len()
}
