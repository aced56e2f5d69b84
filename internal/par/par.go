// Package par provides the shared bounded worker pool used by the nde
// compute kernels: a chunked, dynamically scheduled parallel-for over an
// index range. It replaces the ad-hoc goroutine pools that used to live in
// individual packages so every hot path shares one scheduling policy and
// one set of observability hooks.
//
// Determinism contract: the pool never merges results itself. A body
// callback must write only to state that is private to its worker or to
// its item index (e.g. out[i] = ...), and callers perform any floating-
// point reduction serially in item order after the loop returns. Under
// that discipline every result is bit-for-bit identical for any worker
// count, including 1.
//
// Observability: when obs is enabled each loop records a span
// (par.for / par.for_blocks with the loop name, items and resolved worker
// count), sets the par_workers gauge, and observes per-worker item counts
// into the par_items_per_worker histogram. When obs is disabled the pool
// adds no instrumentation allocations.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nde/internal/obs"
)

// Stats reports how one parallel loop actually ran.
type Stats struct {
	// Requested is the caller-supplied worker count (<= 0 = auto).
	Requested int
	// Workers is the resolved count actually used: GOMAXPROCS when auto,
	// clamped to the number of items.
	Workers int
	// Items is the loop length.
	Items int
	// PerWorker[w] is the number of items worker w processed; its spread
	// shows pool utilization balance.
	PerWorker []int
	// Wall is the end-to-end time of the loop.
	Wall time.Duration
}

// Workers resolves a requested worker count: <= 0 means GOMAXPROCS, the
// result is clamped to items, and is never below 1.
func Workers(requested, items int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs body(worker, i) for every i in [0, items) on a bounded worker
// pool. Scheduling is dynamic over contiguous chunks (items/(workers*8),
// at least 1), so uneven per-item costs still balance. worker is in
// [0, Workers) and identifies the goroutine, letting bodies reuse
// per-worker scratch buffers. It is ForBlocks with that chunk size.
func For(name string, requested, items int, body func(worker, i int)) *Stats {
	chunk := items / (Workers(requested, items) * ChunksPerWorker)
	return ForBlocks(name, requested, items, chunk, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(w, i)
		}
	})
}

// ChunksPerWorker controls dynamic-scheduling granularity: each worker's
// share is split into this many chunks so stragglers can be stolen.
const ChunksPerWorker = 8

// ForErr runs body(worker, i) for every i in [0, items) on the pool and
// collects per-item errors. Every item runs even when an early one fails
// (bodies must already tolerate that for the no-error determinism contract
// to hold); the returned error is the FIRST failing item's error in item
// order, so which error a caller sees does not depend on worker count or
// scheduling.
func ForErr(name string, requested, items int, body func(worker, i int) error) (*Stats, error) {
	errs := make([]error, items)
	st := For(name, requested, items, func(w, i int) {
		errs[i] = body(w, i)
	})
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// ForBlocks runs body(worker, lo, hi) over contiguous blocks of [0, items)
// of the given block size (the last block may be shorter), dynamically
// scheduled across the pool. Use it when the body wants to amortize
// per-block setup (cache tiles, scratch buffers) across several items.
func ForBlocks(name string, requested, items, block int, body func(worker, lo, hi int)) *Stats {
	st := &Stats{Requested: requested, Items: items, Workers: Workers(requested, items)}
	st.PerWorker = make([]int, st.Workers)
	chunk := max(block, 1)
	var sp *obs.Span
	if obs.Enabled() {
		sp = obs.StartSpan("par.for")
		sp.SetStr("name", name).
			SetInt("items", int64(items)).
			SetInt("workers", int64(st.Workers)).
			SetInt("block", int64(chunk))
		obs.SetGauge("par_workers", float64(st.Workers))
	}
	start := time.Now()
	if items > 0 {
		if st.Workers == 1 {
			// inline fast path: no goroutines, no atomics
			for lo := 0; lo < items; lo += chunk {
				hi := lo + chunk
				if hi > items {
					hi = items
				}
				body(0, lo, hi)
			}
			st.PerWorker[0] = items
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < st.Workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						lo := int(next.Add(int64(chunk))) - chunk
						if lo >= items {
							return
						}
						hi := lo + chunk
						if hi > items {
							hi = items
						}
						body(w, lo, hi)
						st.PerWorker[w] += hi - lo // w-private slot; published by wg.Wait
					}
				}(w)
			}
			wg.Wait()
		}
	}
	st.Wall = time.Since(start)
	if obs.Enabled() {
		for _, cnt := range st.PerWorker {
			obs.ObserveWith("par_items_per_worker", float64(cnt), obs.ExpBuckets(1, 2, 13))
		}
	}
	if sp != nil {
		sp.End()
	}
	return st
}
