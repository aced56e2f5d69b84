package importance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"nde/internal/ml"
)

// referenceKNNShapley is the serial kNN-Shapley loop as it stood before the
// windowed loop replaced it, recurrence included, over a freshly built
// (uncached) neighbor index: for each validation point in order, fill the
// rank-order contributions, add them into the scores in rank order, and
// finally scale by 1/q. Its summation order is the contract every entry
// point must keep bit-for-bit.
func referenceKNNShapley(t *testing.T, k int, train, valid *ml.Dataset) Scores {
	t.Helper()
	ix, err := ml.NewNeighborIndex(train, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := train.Len()
	scores := make(Scores, n)
	s := make([]float64, n)
	for v := 0; v < valid.Len(); v++ {
		order := ix.Order(v)
		match := func(pos int) float64 {
			if train.Y[order[pos]] == valid.Y[v] {
				return 1
			}
			return 0
		}
		s[n-1] = match(n-1) / float64(n)
		for j := n - 2; j >= 0; j-- {
			rank := j + 1
			s[j] = s[j+1] + (match(j)-match(j+1))/float64(k)*math.Min(float64(k), float64(rank))/float64(rank)
		}
		for j := 0; j < n; j++ {
			scores[order[j]] += s[j]
		}
	}
	inv := 1 / float64(valid.Len())
	for i := range scores {
		scores[i] *= inv
	}
	return scores
}

// The summation order of the reference loop is pinned for every entry
// point, at query counts that are mostly not multiples of the window.
func TestKNNShapleyKeepsReferenceSummationOrder(t *testing.T) {
	ResetNeighborIndexCache()
	defer ResetNeighborIndexCache()
	const k = 5
	train := blobs(150, 1.5, 1201)
	remove := []int{3, 40, 41, 99, 149}
	for _, q := range []int{1, 7, 17, 45, 200} {
		valid := blobs(q, 1.5, 1202+int64(q))
		want := referenceKNNShapley(t, k, train, valid)

		got, err := KNNShapley(k, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresBitIdentical(t, got, want, fmt.Sprintf("q=%d KNNShapley", q))
		for _, workers := range []int{1, 2, 3, 4, runtime.GOMAXPROCS(0)} {
			ctx := fmt.Sprintf("q=%d workers=%d", q, workers)
			got, err := KNNShapleyParallel(k, train, valid, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertScoresBitIdentical(t, got, want, ctx+" KNNShapleyParallel")

			got, _, _, err = KNNShapleyDelta(k, train, valid, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertScoresBitIdentical(t, got, want, ctx+" KNNShapleyDelta(nil)")

			got, keep, _, err := KNNShapleyDelta(k, train, valid, remove, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertScoresBitIdentical(t, got, referenceKNNShapley(t, k, train.Subset(keep), valid), ctx+" KNNShapleyDelta(remove)")
		}
	}
}

// MCShapley reproduces, at every worker count, the per-permutation-seeded
// estimates the former MCShapleyParallel returned: FNV-1a checksums over
// the scores' Float64bits were recorded from it before the two estimators
// were merged.
func TestMCShapleyMatchesRecordedChecksums(t *testing.T) {
	train := blobs(40, 1.5, 801)
	valid := blobs(20, 1.5, 802)
	u := KNNUtility(3, train, valid)
	for _, tc := range []struct {
		cfg  MCShapleyConfig
		want uint64
	}{
		{MCShapleyConfig{Permutations: 12, Seed: 7}, 0x3ae7caa32d2d33b8},
		{MCShapleyConfig{Permutations: 45, Seed: 7, Truncation: 0.05}, 0x7513ed60cf313009},
	} {
		for _, workers := range []int{1, 2, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			scores, err := MCShapley(train.Len(), u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, v := range scores {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("%+v: checksum %#016x, want %#016x", cfg, got, tc.want)
			}
		}
	}
}
