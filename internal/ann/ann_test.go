package ann

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nde/internal/linalg"
)

// clusteredData draws n rows of dimension d around c Gaussian blob centers
// with the given spread — the workload IVF partitioning is built for.
func clusteredData(r *rand.Rand, n, d, c int, spread float64) *linalg.Matrix {
	centers := linalg.NewMatrix(c, d)
	for i := range centers.Data {
		centers.Data[i] = r.NormFloat64() * 10
	}
	m := linalg.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		ctr := centers.Row(r.Intn(c))
		row := m.Row(i)
		for j := range row {
			row[j] = ctr[j] + r.NormFloat64()*spread
		}
	}
	return m
}

// exactTopK is the float32 brute-force reference under the same
// (distance, index) total order.
func exactTopK(data *linalg.Matrix32, q []float32, k int) []int {
	pairs := make([]distIdx32, data.Rows)
	for i := range pairs {
		pairs[i] = distIdx32{d: linalg.SquaredDistance32(data.Row(i), q), i: int32(i)}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].less(pairs[b]) })
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = int(pairs[i].i)
	}
	return out
}

// Property: on seeded clustered datasets, IVF recall@10 stays at or above
// the floor the Auto mode certifies against. Probing a quarter of the
// lists on well-separated blobs must clear 0.95 comfortably.
func TestIVFRecallAboveFloorProperty(t *testing.T) {
	const floor = 0.95
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 600 + r.Intn(400)
		d := 4 + r.Intn(12)
		data := clusteredData(r, n, d, 8+r.Intn(8), 1.0)
		ix, err := Build(data, Config{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ix.SetNProbe(ix.NLists() / 4)
		rec := ix.EstimateRecall(10, 24)
		if rec < floor {
			t.Logf("seed %d: recall %.3f < %.2f (n=%d d=%d nlists=%d nprobe=%d)",
				seed, rec, floor, n, d, ix.NLists(), ix.NProbe())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// The build must be bit-for-bit deterministic across worker counts: same
// centroids, same lists, same answers.
func TestIVFBuildDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	data := clusteredData(r, 500, 8, 10, 1.0)
	base, err := Build(data, Config{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		ix, err := Build(data, Config{Seed: 9, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if ix.centroids.Fingerprint() != base.centroids.Fingerprint() {
			t.Fatalf("workers=%d: centroid fingerprints differ", w)
		}
		for c := range base.lists {
			if len(ix.lists[c]) != len(base.lists[c]) {
				t.Fatalf("workers=%d: list %d sizes differ", w, c)
			}
			for j := range base.lists[c] {
				if ix.lists[c][j] != base.lists[c][j] {
					t.Fatalf("workers=%d: list %d member %d differs", w, c, j)
				}
			}
		}
		q := data.Row(3)
		q32 := make([]float32, len(q))
		for i, v := range q {
			q32[i] = float32(v)
		}
		a, b := base.TopK(q32, 10, nil), ix.TopK(q32, 10, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: TopK differs at %d", w, i)
			}
		}
	}
}

// Probing every list is an exact float32 scan: answers must equal the
// brute-force reference exactly, including index tie-breaks.
func TestIVFFullProbeIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	data := clusteredData(r, 300, 6, 6, 1.5)
	ix, err := Build(data, Config{Seed: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix.SetNProbe(ix.NLists())
	d32 := data.ToMatrix32()
	scratch := &Scratch{}
	for _, qi := range []int{0, 17, 299} {
		q := d32.Row(qi)
		want := exactTopK(d32, q, 15)
		got := ix.TopK(q, 15, scratch)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: %d vs %d", qi, i, got[i], want[i])
			}
		}
	}
}

// Random-projection routing: high-d data routed through a projected space
// still ranks candidates in the original space, and recall stays high.
func TestIVFRandomProjectionRouting(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	data := clusteredData(r, 800, 96, 12, 1.0)
	ix, err := Build(data, Config{Seed: 5, ProjectDim: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.proj == nil {
		t.Fatal("projection not built for ProjectDim=16 on d=96 data")
	}
	if ix.routed.Cols != 16 {
		t.Fatalf("routing space dim %d, want 16", ix.routed.Cols)
	}
	ix.SetNProbe(ix.NLists() / 2)
	if rec := ix.EstimateRecall(10, 20); rec < 0.9 {
		t.Errorf("projected-routing recall %.3f < 0.9", rec)
	}
	// ProjectDim >= d is ignored
	flat, err := Build(clusteredData(r, 100, 8, 4, 1.0), Config{Seed: 6, ProjectDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if flat.proj != nil {
		t.Error("projection built although ProjectDim >= data dim")
	}
}

// A query probing lists that hold fewer than k rows returns what it found
// — the caller's fallback signal — and degenerate inputs error cleanly.
func TestIVFShortListsAndErrors(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	data := clusteredData(r, 40, 3, 4, 0.5)
	ix, err := Build(data, Config{NLists: 8, NProbe: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := data.ToMatrix32().Row(0)
	got := ix.TopK(q, 40, nil)
	if len(got) >= 40 {
		t.Fatalf("single-probe TopK returned %d of 40 rows; expected a partial answer", len(got))
	}
	if out := ix.TopK(q, 0, nil); out != nil {
		t.Errorf("k=0 returned %v", out)
	}
	if _, err := Build(linalg.NewMatrix(0, 3), Config{}); err == nil {
		t.Error("empty build did not error")
	}
	if _, err := Build(nil, Config{}); err == nil {
		t.Error("nil build did not error")
	}
}

func BenchmarkIVFTopK(b *testing.B) {
	r := rand.New(rand.NewSource(40))
	data := clusteredData(r, 5000, 16, 32, 1.0)
	ix, err := Build(data, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := data.ToMatrix32().Row(7)
	scratch := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(q, 10, scratch)
	}
}
