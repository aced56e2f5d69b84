package importance

import (
	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/store"
)

// The kNN-Shapley hot paths all need the same valid×train distance
// geometry, and callers (iterative cleaning, repeated experiments,
// benchmarks, concurrent serving requests) invoke them many times over
// datasets whose *features* never change — only labels do. This cache
// shares one exact ml.NeighborIndex per distinct (train.X, valid.X) pair
// through a content-addressed artifact store (internal/store), so the
// distance matrix and the per-query neighbor orders are computed exactly
// once and reused across calls. Keys are content fingerprints
// (linalg.Matrix.Fingerprint), not pointer identities, so in-place feature
// mutations are detected and get a fresh index.
//
// Cached indexes are always exact. The kNN-Shapley closed form reads the
// full ranking (Order), which is exact under every search mode, so a mode
// could not change any score; the one TopK reader of a cached index (the
// facade's DebugSession accuracy) thereby stays exact before and after
// delta removals alike. Approximate top-k search is opt-in per index
// through ml.NewNeighborIndexSearch and never enters this cache.
//
// Concurrency: lookups are singleflight and eviction is LRU over ready
// entries only — an in-flight build is never evicted, so concurrent
// same-key callers always share one build even while other geometries
// churn the cache past its bound. See the internal/store package
// documentation for the full contract.
//
// IMPORTANT: a cached index may hold *stale labels* (its Datasets are the
// ones from the first call). Callers must therefore use only the
// geometry methods of the returned index (D2, Order, TopK) and read labels
// from their own arguments — never Predict* on a cached index.
//
// Metrics: importance_neighbor_index_{hits,misses,evictions,waits}_total
// plus the importance_neighbor_index_{entries,inflight} gauges. A "wait"
// is a caller that blocked on another goroutine's in-flight build instead
// of building or reading a completed entry.

type indexKey struct {
	trainFP, validFP uint64
}

// indexCacheCapacity is the LRU bound: enough for a root geometry plus
// the delta-derived children an iterative cleaning loop keeps live.
const indexCacheCapacity = 4

// indexStore is the shared neighbor-index artifact store. The metric
// prefix keeps the cache's established counter names.
var indexStore = store.New[indexKey, *ml.NeighborIndex]("importance_neighbor_index", indexCacheCapacity)

// sharedNeighborIndex returns the cached NeighborIndex for (train, valid)
// — valid rows are the queries — building and caching it on a miss. Safe
// for concurrent use; concurrent callers for the same geometry share one
// build.
func sharedNeighborIndex(train, valid *ml.Dataset, workers int) (*ml.NeighborIndex, error) {
	key := indexKey{trainFP: train.X.Fingerprint(), validFP: valid.X.Fingerprint()}
	return indexStore.GetOrBuild(key, func() (*ml.NeighborIndex, error) {
		return ml.NewNeighborIndex(train, valid, workers)
	})
}

// registerDerivedIndex publishes a delta-derived index under its own
// geometry key, so the next sharedNeighborIndex call for the mutated
// train set hits the cache instead of rebuilding from scratch — the cache
// derives child entries from parents. First build wins on collision
// (store.Put semantics); the counter tracks successful registrations.
func registerDerivedIndex(ix *ml.NeighborIndex, validFP uint64) {
	key := indexKey{trainFP: ix.Train.X.Fingerprint(), validFP: validFP}
	if indexStore.Put(key, ix) && obs.Enabled() {
		obs.Inc("importance_neighbor_index_derived_total")
	}
}

// ResetNeighborIndexCache drops every cached index. Intended for tests and
// for long-lived processes that want to bound memory between workloads.
// In-flight builds are unaffected: their waiters still receive the built
// index, it just is no longer cached afterwards.
func ResetNeighborIndexCache() { indexStore.Reset() }
