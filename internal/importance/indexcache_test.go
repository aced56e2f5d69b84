package importance

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
)

// Every kNN-Shapley entry point — serial, pooled at any worker count, and
// the delta path with nothing removed — runs the same loop and must agree
// bit-for-bit.
func TestKNNShapleyAllPathsBitIdentical(t *testing.T) {
	train := blobs(90, 1.5, 901)
	valid := blobs(45, 1.5, 902)
	seq, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		par, err := KNNShapleyParallel(5, train, valid, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresBitIdentical(t, par, seq, fmt.Sprintf("workers=%d", workers))
		delta, _, _, err := KNNShapleyDelta(5, train, valid, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresBitIdentical(t, delta, seq, fmt.Sprintf("delta workers=%d", workers))
	}
}

// Repeated calls over the same features must hit the shared index cache —
// the distance matrix is computed exactly once — and hits/misses are
// exported as counters.
func TestSharedNeighborIndexCacheHits(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	train := blobs(50, 1.5, 903)
	valid := blobs(25, 1.5, 904)
	if _, err := KNNShapley(5, train, valid); err != nil {
		t.Fatal(err)
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	if misses != 1 {
		t.Fatalf("misses after first call = %d, want 1", misses)
	}
	if _, err := KNNShapley(3, train, valid); err != nil { // different k, same geometry
		t.Fatal(err)
	}
	if _, err := KNNShapleyParallel(5, train, valid, 2); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("importance_neighbor_index_hits_total").Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := obs.Default().Counter("importance_neighbor_index_misses_total").Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// Label-only mutations (the iterative-cleaning pattern) may reuse the
// cached geometry, but the scores must still reflect the new labels; a
// feature mutation must produce a cache miss.
func TestSharedNeighborIndexLabelAndFeatureMutations(t *testing.T) {
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	train := blobs(40, 1.5, 905)
	valid := blobs(20, 1.5, 906)
	before, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}

	// flip a label in place: same features → cache hit, different scores
	train.Y[3] = 1 - train.Y[3]
	after, err := KNNShapley(5, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range before {
		if before[i] != after[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("label flip did not change any score (stale labels served from cache?)")
	}
	// the flipped point's own score must move: its match indicator changed
	// at every validation point
	if after[3] == before[3] {
		t.Errorf("flipped point score unchanged at %v", after[3])
	}

	// mutate a feature in place: the fingerprint must detect it
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	train.X.Set(0, 0, train.X.At(0, 0)+10)
	if _, err := KNNShapley(5, train, valid); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("importance_neighbor_index_misses_total").Value(); got != 1 {
		t.Errorf("feature mutation produced %d misses, want 1", got)
	}
}

// The cache is bounded: once more geometries than the capacity have been
// built, the store holds exactly the capacity.
func TestSharedNeighborIndexCacheEviction(t *testing.T) {
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	for i := 0; i < IndexCacheCapacity()+2; i++ {
		train := blobs(20, 1.5, int64(910+i))
		valid := blobs(10, 1.5, int64(930+i))
		if _, err := KNNShapley(3, train, valid); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := indexStore.Len(), IndexCacheCapacity(); got != want {
		t.Errorf("cache holds %d entries, want %d", got, want)
	}
}

// Concurrent first callers for the SAME geometry must coalesce into one
// singleflight build: exactly one miss, everyone else hits (possibly after
// blocking on the in-flight build), and all callers get the same index.
func TestSharedNeighborIndexSingleflight(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	train := blobs(80, 1.5, 940)
	valid := blobs(40, 1.5, 941)
	const callers = 8
	indexes := make([]*ml.NeighborIndex, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			ix, err := sharedNeighborIndex(train, valid, 1)
			if err != nil {
				t.Error(err)
				return
			}
			indexes[c] = ix
		}(c)
	}
	close(start)
	wg.Wait()
	for c := 1; c < callers; c++ {
		if indexes[c] != indexes[0] {
			t.Fatalf("caller %d got a different index instance", c)
		}
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	hits := obs.Default().Counter("importance_neighbor_index_hits_total").Value()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (build ran more than once)", misses)
	}
	if hits != callers-1 {
		t.Errorf("hits = %d, want %d", hits, callers-1)
	}
}

// Concurrent builds for DIFFERENT geometries must not serialize behind one
// global lock held across the build: under churn from many goroutines the
// cache stays within capacity + in-flight builds at every observation
// point (in-flight entries are never evicted, so concurrent distinct
// builds may transiently overflow the bound), trims back to the capacity
// once the churn settles, and every evicted slot is accounted for in the
// eviction counter.
func TestSharedNeighborIndexChurnBounded(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	const datasets = 10
	trains := make([]*ml.Dataset, datasets)
	valids := make([]*ml.Dataset, datasets)
	for i := range trains {
		trains[i] = blobs(30, 1.5, int64(950+i))
		valids[i] = blobs(15, 1.5, int64(970+i))
	}
	const goroutines = 6
	const iters = 8
	bound := IndexCacheCapacity() + goroutines
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				d := (g*iters + it) % datasets
				if _, err := sharedNeighborIndex(trains[d], valids[d], 1); err != nil {
					t.Error(err)
					return
				}
				if nc := indexStore.Len(); nc > bound {
					t.Errorf("cache grew past bound: %d entries, max %d + %d in flight", nc, IndexCacheCapacity(), goroutines)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if nc, want := indexStore.Len(), IndexCacheCapacity(); nc != want {
		t.Errorf("final cache size %d, want %d", nc, want)
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	evictions := obs.Default().Counter("importance_neighbor_index_evictions_total").Value()
	if misses < datasets {
		t.Errorf("misses = %d, want >= %d distinct geometries", misses, datasets)
	}
	if evictions != misses-int64(IndexCacheCapacity()) {
		t.Errorf("evictions = %d, want misses-cap = %d", evictions, misses-int64(IndexCacheCapacity()))
	}
}

// REGRESSION for the in-flight eviction bug: under the old FIFO cache,
// inserting a second geometry at capacity 1 evicted the *in-flight* head
// entry, detaching the key from its running build — so any same-key caller
// arriving afterwards silently started a duplicate build of the same
// geometry. The store must never evict an in-flight entry: concurrent
// same-key callers during churn coalesce into exactly one build (one miss
// for the churned geometry plus one per distinct churn geometry, no more).
func TestSharedNeighborIndexInFlightSurvivesChurn(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	prev, err := SetIndexCacheCapacity(1)
	if err != nil {
		t.Fatal(err)
	}
	defer SetIndexCacheCapacity(prev)

	// A is deliberately large so its index build is still in flight while
	// the tiny churn geometry B is built and evicted around it.
	trainA := blobs(1500, 1.5, 2001)
	validA := blobs(700, 1.5, 2002)
	trainB := blobs(10, 1.5, 2003)
	validB := blobs(5, 1.5, 2004)

	const wave = 6
	indexes := make([]*ml.NeighborIndex, wave)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < wave; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			ix, err := sharedNeighborIndex(trainA, validA, 1)
			if err != nil {
				t.Error(err)
				return
			}
			indexes[c] = ix
		}(c)
	}
	close(start)
	// churn while A's build is (very likely) in flight: build B at
	// capacity 1, which under the old FIFO evicted in-flight A, and
	// exercise the SetIndexCacheCapacity shrink path too
	if _, err := sharedNeighborIndex(trainB, validB, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := SetIndexCacheCapacity(1); err != nil {
		t.Fatal(err)
	}
	// stragglers arrive strictly after the churn: they must join A's
	// flight or hit its cached entry, never rebuild
	stragglers := make([]*ml.NeighborIndex, 2)
	for c := range stragglers {
		ix, err := sharedNeighborIndex(trainA, validA, 1)
		if err != nil {
			t.Fatal(err)
		}
		stragglers[c] = ix
	}
	wg.Wait()
	for c := 1; c < wave; c++ {
		if indexes[c] != indexes[0] {
			t.Fatalf("caller %d got a different index instance", c)
		}
	}
	for c, ix := range stragglers {
		if ix != indexes[0] {
			t.Fatalf("straggler %d got a different index instance: geometry A was rebuilt", c)
		}
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	if misses != 2 { // one for A, one for B — a third means A rebuilt
		t.Errorf("misses = %d, want 2 (A built once, B built once)", misses)
	}
}

// The FIFO capacity is configurable; the obs eviction counter must track
// exactly the configured cap, and shrinking evicts immediately.
func TestIndexCacheCapacityConfigurable(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	prev, err := SetIndexCacheCapacity(2)
	if err != nil {
		t.Fatal(err)
	}
	defer SetIndexCacheCapacity(prev)
	if got := IndexCacheCapacity(); got != 2 {
		t.Fatalf("capacity = %d, want 2", got)
	}

	const builds = 5
	for i := 0; i < builds; i++ {
		train := blobs(15, 1.5, int64(1400+i))
		valid := blobs(8, 1.5, int64(1500+i))
		if _, err := sharedNeighborIndex(train, valid, 1); err != nil {
			t.Fatal(err)
		}
	}
	evictions := obs.Default().Counter("importance_neighbor_index_evictions_total").Value()
	if want := int64(builds - 2); evictions != want {
		t.Errorf("evictions = %d, want builds-cap = %d", evictions, want)
	}
	if nc := indexStore.Len(); nc != 2 {
		t.Errorf("cache holds %d entries, want the configured cap 2", nc)
	}

	// shrinking below the current population evicts immediately
	if _, err := SetIndexCacheCapacity(1); err != nil {
		t.Fatal(err)
	}
	if nc := indexStore.Len(); nc != 1 {
		t.Errorf("after shrink: %d entries, want 1", nc)
	}
	if got := obs.Default().Counter("importance_neighbor_index_evictions_total").Value(); got != evictions+1 {
		t.Errorf("shrink evictions = %d, want %d", got, evictions+1)
	}
	for _, bad := range []int{0, -3} {
		got, err := SetIndexCacheCapacity(bad)
		if !errors.Is(err, nderr.ErrDegenerateInput) {
			t.Errorf("SetIndexCacheCapacity(%d) err = %v, want ErrDegenerateInput", bad, err)
		}
		if got != 1 {
			t.Errorf("SetIndexCacheCapacity(%d) reports capacity %d, want unchanged 1", bad, got)
		}
	}
	if got := IndexCacheCapacity(); got != 1 {
		t.Errorf("capacity = %d, want unchanged 1", got)
	}
}

// The cache key includes the search-config fingerprint: the same geometry
// under a different search mode must be a distinct entry, never an alias.
func TestIndexCacheKeyedBySearchConfig(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	defer SetNeighborSearch(ml.SearchConfig{})

	train := blobs(40, 1.5, 1600)
	valid := blobs(20, 1.5, 1601)
	exact, err := sharedNeighborIndex(train, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	SetNeighborSearch(ml.SearchConfig{Mode: ml.SearchAuto, ExactThreshold: 10, NProbe: 2})
	if got := NeighborSearch().Mode; got != ml.SearchAuto {
		t.Fatalf("NeighborSearch mode = %v, want auto", got)
	}
	approx, err := sharedNeighborIndex(train, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exact == approx {
		t.Fatal("same index instance served for different search configs")
	}
	if got := obs.Default().Counter("importance_neighbor_index_misses_total").Value(); got != 2 {
		t.Errorf("misses = %d, want 2 (one per config)", got)
	}
	// back to the default config: the exact entry is still cached
	SetNeighborSearch(ml.SearchConfig{})
	again, err := sharedNeighborIndex(train, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != exact {
		t.Error("default-config lookup missed the cached exact index")
	}
}
