package ml

import (
	"nde/internal/obs"
	"nde/internal/store"
)

// The kNN hot paths all need the same queries×train distance geometry,
// and callers (kNN-Shapley scoring, what-if removal analysis, iterative
// cleaning, repeated experiments, benchmarks, concurrent serving requests)
// invoke them many times over datasets whose *features* never change —
// only labels and removals do. This cache shares one exact NeighborIndex
// per distinct (train.X, queries.X) pair through a content-addressed
// artifact store (internal/store), so the distance matrix, the per-query
// neighbor orders and the top-k lists are computed once and reused across
// calls and across packages: importance scores from it and what-if
// derives its removal variants from the same base. Keys are content
// fingerprints (linalg.Matrix.Fingerprint), not pointer identities, so
// in-place feature mutations are detected and get a fresh index.
//
// Every NeighborIndex is exact, so all consumers of a cached index agree:
// the kNN-Shapley closed form reads the full ranking (Order), and the TopK
// readers (what-if votes, the facade's DebugSession accuracy) read the
// same geometry before and after delta removals alike.
//
// Concurrency: lookups are singleflight and eviction is LRU over ready
// entries only — an in-flight build is never evicted, so concurrent
// same-key callers always share one build even while other geometries
// churn the cache past its bound. See the internal/store package
// documentation for the full contract.
//
// IMPORTANT: a cached index may hold *stale labels* (its Datasets are the
// ones from the first call). Callers must therefore read labels from their
// own arguments — PredictBatchLabels with their own trainY, never
// PredictBatch — and build the labels of any derived child themselves.
//
// Metrics: importance_neighbor_index_{hits,misses,evictions,waits}_total
// plus the importance_neighbor_index_{entries,inflight} gauges (the names
// predate the move from internal/importance and are kept for dashboards
// and the serve smoke test). A "wait" is a caller that blocked on another
// goroutine's in-flight build instead of building or reading a completed
// entry.

type indexKey struct {
	trainFP, queriesFP uint64
}

// indexCacheCapacity is the LRU bound: enough for a root geometry plus
// the delta-derived children an iterative cleaning loop keeps live.
const indexCacheCapacity = 4

// indexStore is the shared neighbor-index artifact store.
var indexStore = store.New[indexKey, *NeighborIndex]("importance_neighbor_index", indexCacheCapacity)

// SharedNeighborIndex returns the cached exact NeighborIndex for (train,
// queries), building and caching it on a miss. Safe for concurrent use;
// concurrent callers for the same geometry share one build. The index's
// datasets may be another caller's: use its geometry and vote with your
// own labels (see the stale-label note above).
func SharedNeighborIndex(train, queries *Dataset, workers int) (*NeighborIndex, error) {
	key := indexKey{trainFP: train.X.Fingerprint(), queriesFP: queries.X.Fingerprint()}
	return indexStore.GetOrBuild(key, func() (*NeighborIndex, error) {
		return NewNeighborIndex(train, queries, workers)
	})
}

// PublishNeighborIndex caches a delta-derived index under its own
// geometry key, so the next SharedNeighborIndex call for the mutated train
// set hits the cache instead of rebuilding from scratch. First build wins
// on collision (store.Put semantics); importance_neighbor_index_derived_total
// counts successful registrations.
func PublishNeighborIndex(ix *NeighborIndex) {
	key := indexKey{trainFP: ix.Train.X.Fingerprint(), queriesFP: ix.Queries.X.Fingerprint()}
	if indexStore.Put(key, ix) && obs.Enabled() {
		obs.Inc("importance_neighbor_index_derived_total")
	}
}

// ResetNeighborIndexCache drops every cached index. Intended for tests and
// for long-lived processes that want to bound memory between workloads.
// In-flight builds are unaffected: their waiters still receive the built
// index, it just is no longer cached afterwards.
func ResetNeighborIndexCache() { indexStore.Reset() }
