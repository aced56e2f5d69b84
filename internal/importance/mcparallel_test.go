package importance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// mcAt is MCShapley with cfg.Workers set to workers.
func mcAt(n int, u Utility, cfg MCShapleyConfig, workers int) (Scores, error) {
	cfg.Workers = workers
	return MCShapley(n, u, cfg)
}

// The headline determinism contract: MCShapley is bit-for-bit identical
// for any worker count at the same seed.
func TestMCShapleyParallelDeterministicAcrossWorkers(t *testing.T) {
	train := blobs(40, 1.5, 801)
	valid := blobs(20, 1.5, 802)
	u := KNNUtility(3, train, valid)
	cfg := MCShapleyConfig{Permutations: 12, Seed: 7, Truncation: 0.05}
	ref, err := mcAt(train.Len(), u, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), 50} {
		got, err := mcAt(train.Len(), u, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: score %d differs: %v vs %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// Property: determinism holds for random shapes, seeds, truncation
// settings and worker counts.
func TestQuickMCShapleyParallelDeterministic(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		train := randomDataset(r, 4+r.Intn(12), 2, 2)
		valid := randomDataset(r, 1+r.Intn(5), 2, 2)
		u := KNNUtility(1+r.Intn(3), train, valid)
		cfg := MCShapleyConfig{
			Permutations: 1 + r.Intn(8),
			Seed:         r.Int63(),
			Truncation:   float64(r.Intn(2)) * 0.05,
		}
		a, err := mcAt(train.Len(), u, cfg, 1)
		if err != nil {
			return false
		}
		b, err := mcAt(train.Len(), u, cfg, 1+r.Intn(7))
		if err != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// MCShapley must estimate the same values as the exact enumeration at the
// automatic worker count — parallelism must not change what is being
// estimated.
func TestMCShapleyParallelApproximatesExact(t *testing.T) {
	train := blobs(10, 2.5, 803)
	valid := blobs(8, 2.5, 804)
	u := KNNUtility(3, train, valid)
	exact, err := ExactShapley(train.Len(), u)
	if err != nil {
		t.Fatal(err)
	}
	est, err := mcAt(train.Len(), u, MCShapleyConfig{Permutations: 400, Seed: 11}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(est[i]-exact[i]) > 0.1 {
			t.Errorf("score %d: estimate %v vs exact %v", i, est[i], exact[i])
		}
	}
	// efficiency axiom survives the parallel reduction
	all := make([]int, train.Len())
	for i := range all {
		all[i] = i
	}
	uFull, err := u(all)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Sum()-uFull) > 0.05 {
		t.Errorf("sum %v vs U(D) %v", est.Sum(), uFull)
	}
}

func TestMCShapleyParallelPropagatesUtilityError(t *testing.T) {
	boom := errors.New("boom")
	u := func(subset []int) (float64, error) {
		if len(subset) > 3 {
			return 0, boom
		}
		return float64(len(subset)), nil
	}
	_, err := mcAt(8, u, MCShapleyConfig{Permutations: 6, Seed: 1}, 4)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := mcAt(0, u, MCShapleyConfig{}, 1); err == nil {
		t.Error("expected error for n = 0")
	}
}

// Truncation must cut utility evaluations.
func TestMCShapleyParallelTruncationCutsEvals(t *testing.T) {
	train := blobs(30, 2.5, 805)
	valid := blobs(15, 2.5, 806)
	u := KNNUtility(3, train, valid)
	count := func(trunc float64) int {
		n := 0
		counted := func(subset []int) (float64, error) {
			n++
			return u(subset)
		}
		cfg := MCShapleyConfig{Permutations: 5, Seed: 3, Truncation: trunc}
		if _, err := mcAt(train.Len(), counted, cfg, 1); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if with, without := count(0.05), count(0); with >= without {
		t.Errorf("truncation did not cut evals: %d vs %d", with, without)
	}
}

func TestPermSeedIndependentOfWorkerLayout(t *testing.T) {
	seen := map[int64]int{}
	for p := 0; p < 1000; p++ {
		seen[permSeed(42, p)]++
	}
	if len(seen) != 1000 {
		t.Errorf("permSeed collisions: %d distinct seeds for 1000 permutations", len(seen))
	}
	if permSeed(1, 0) == permSeed(2, 0) {
		t.Error("different config seeds produced the same permutation seed")
	}
}

func BenchmarkMCShapleyParallel(b *testing.B) {
	train := blobs(60, 1.5, 807)
	valid := blobs(30, 1.5, 808)
	u := KNNUtility(5, train, valid)
	cfg := MCShapleyConfig{Permutations: 10, Seed: 5, Truncation: 0.01}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcAt(train.Len(), u, cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
