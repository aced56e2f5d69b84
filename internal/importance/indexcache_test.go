package importance

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nde/internal/ml"
	"nde/internal/obs"
)

// sharedIndexCapacity is the shared neighbor-index cache's constant LRU
// bound (ml.SharedNeighborIndex). The tests observe the cache only through
// its public behaviour and its importance_neighbor_index_* metrics.
const sharedIndexCapacity = 4

// cachedIndexes reads the cache's entry gauge (ready + in flight). The
// gauge is refreshed under the store lock on every insert, eviction and
// reset, so it tracks the store exactly while obs is enabled.
func cachedIndexes() int {
	return int(obs.Default().Gauge("importance_neighbor_index_entries").Value())
}

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
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	for i := 0; i < sharedIndexCapacity+2; i++ {
		train := blobs(20, 1.5, int64(910+i))
		valid := blobs(10, 1.5, int64(930+i))
		if _, err := KNNShapley(3, train, valid); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cachedIndexes(), sharedIndexCapacity; got != want {
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
			ix, err := ml.SharedNeighborIndex(train, valid, 1)
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
	bound := sharedIndexCapacity + goroutines
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				d := (g*iters + it) % datasets
				if _, err := ml.SharedNeighborIndex(trains[d], valids[d], 1); err != nil {
					t.Error(err)
					return
				}
				if nc := cachedIndexes(); nc > bound {
					t.Errorf("cache grew past bound: %d entries, max %d + %d in flight", nc, sharedIndexCapacity, goroutines)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if nc, want := cachedIndexes(), sharedIndexCapacity; nc != want {
		t.Errorf("final cache size %d, want %d", nc, want)
	}
	misses := obs.Default().Counter("importance_neighbor_index_misses_total").Value()
	evictions := obs.Default().Counter("importance_neighbor_index_evictions_total").Value()
	if misses < datasets {
		t.Errorf("misses = %d, want >= %d distinct geometries", misses, datasets)
	}
	if evictions != misses-int64(sharedIndexCapacity) {
		t.Errorf("evictions = %d, want misses-cap = %d", evictions, misses-int64(sharedIndexCapacity))
	}
}

// REGRESSION for the in-flight eviction bug: under the old FIFO cache,
// inserting geometries past the capacity evicted the *in-flight* head
// entry, detaching the key from its running build — so any same-key caller
// arriving afterwards silently started a duplicate build of the same
// geometry. The store must never evict an in-flight entry: concurrent
// same-key callers during churn coalesce into exactly one build (one miss
// for the churned geometry plus one per distinct churn geometry, no more).
func TestSharedNeighborIndexInFlightSurvivesChurn(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	defer ResetNeighborIndexCache()

	// A is large so its callers are still fingerprinting or building
	// while the tiny churn geometries pass through the cache.
	r := rand.New(rand.NewSource(2001))
	trainA := randomDataset(r, 20000, 16, 2)
	validA := randomDataset(r, 8, 16, 2)
	for round := 0; round < 10; round++ {
		if inFlightChurnRound(t, trainA, validA, round) {
			return
		}
	}
	t.Fatal("A's build had already finished when the churn ended, in every round")
}

// inFlightChurnRound runs a wave of same-key callers for geometry A while
// one geometry more than the capacity churns the cache — under the old
// FIFO, enough to evict in-flight A. Driven only through the public API,
// the schedule decides whether A is absent or in flight during the churn
// (internal/store's TestInFlightEntrySurvivesChurn pins the in-flight case
// with a blocked build). A ready A is legitimately evictable, so a round
// whose churn ended after A's build finished proves nothing: it reports
// false without asserting, and the caller runs another round.
func inFlightChurnRound(t *testing.T, trainA, validA *ml.Dataset, round int) bool {
	t.Helper()
	obs.Reset()
	ResetNeighborIndexCache()
	misses := func() int64 { return obs.Default().Counter("importance_neighbor_index_misses_total").Value() }
	inflight := func() float64 { return obs.Default().Gauge("importance_neighbor_index_inflight").Value() }
	const churn = sharedIndexCapacity + 1
	churnTrain := make([]*ml.Dataset, churn)
	churnValid := make([]*ml.Dataset, churn)
	for i := range churnTrain {
		seed := int64(2003 + 10*round + i)
		churnTrain[i], churnValid[i] = blobs(10, 1.5, seed), blobs(5, 1.5, seed+1000)
	}

	const wave = 6
	indexes := make([]*ml.NeighborIndex, wave)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < wave; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			ix, err := ml.SharedNeighborIndex(trainA, validA, 1)
			if err != nil {
				t.Error(err)
				return
			}
			indexes[c] = ix
		}(c)
	}
	close(start)
	for i := 0; i < churn; i++ {
		if _, err := ml.SharedNeighborIndex(churnTrain[i], churnValid[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	// conclusive: A has not entered the cache yet, or its one build is
	// still in flight (the churn's builds are done; only A can be)
	m := misses()
	conclusive := m == churn || (m == churn+1 && inflight() == 1)
	// stragglers arrive strictly after the churn: they must join A's
	// flight or hit its cached entry, never rebuild
	stragglers := make([]*ml.NeighborIndex, 2)
	for c := range stragglers {
		ix, err := ml.SharedNeighborIndex(trainA, validA, 1)
		if err != nil {
			t.Fatal(err)
		}
		stragglers[c] = ix
	}
	wg.Wait()
	if !conclusive {
		return false
	}
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
	if got := misses(); got != 1+churn { // one for A, one per churn geometry — more means A rebuilt
		t.Errorf("misses = %d, want %d (A built once, each churn geometry once)", got, 1+churn)
	}
	return true
}

// The capacity is the constant sharedIndexCapacity: every build past it
// evicts exactly one entry, accounted in the obs eviction counter, and the
// least recently used geometry is the one that goes.
func TestIndexCacheCapacityConfigurable(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()

	const builds = sharedIndexCapacity + 3
	geometry := func(i int) (*ml.Dataset, *ml.Dataset) {
		return blobs(15, 1.5, int64(1400+i)), blobs(8, 1.5, int64(1500+i))
	}
	for i := 0; i < builds; i++ {
		train, valid := geometry(i)
		if _, err := ml.SharedNeighborIndex(train, valid, 1); err != nil {
			t.Fatal(err)
		}
	}
	counter := func(name string) int64 { return obs.Default().Counter(name).Value() }
	if got := counter("importance_neighbor_index_misses_total"); got != builds {
		t.Errorf("misses = %d, want one per distinct geometry = %d", got, builds)
	}
	if got, want := counter("importance_neighbor_index_evictions_total"), int64(builds-sharedIndexCapacity); got != want {
		t.Errorf("evictions = %d, want builds-cap = %d", got, want)
	}
	if nc := cachedIndexes(); nc != sharedIndexCapacity {
		t.Errorf("cache holds %d entries, want the capacity %d", nc, sharedIndexCapacity)
	}

	// the last sharedIndexCapacity geometries are still cached: no new miss
	for i := builds - sharedIndexCapacity; i < builds; i++ {
		train, valid := geometry(i)
		if _, err := ml.SharedNeighborIndex(train, valid, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter("importance_neighbor_index_misses_total"); got != builds {
		t.Errorf("misses after revisiting the cached geometries = %d, want %d", got, builds)
	}
	// the oldest was evicted: asking again rebuilds it and evicts one more
	train, valid := geometry(0)
	if _, err := ml.SharedNeighborIndex(train, valid, 1); err != nil {
		t.Fatal(err)
	}
	if got := counter("importance_neighbor_index_misses_total"); got != builds+1 {
		t.Errorf("misses after the evicted geometry = %d, want %d", got, builds+1)
	}
	if got, want := counter("importance_neighbor_index_evictions_total"), int64(builds-sharedIndexCapacity+1); got != want {
		t.Errorf("evictions = %d, want %d", got, want)
	}
	if nc := cachedIndexes(); nc != sharedIndexCapacity {
		t.Errorf("cache holds %d entries, want the capacity %d", nc, sharedIndexCapacity)
	}
}
