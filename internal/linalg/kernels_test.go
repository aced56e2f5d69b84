package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func naiveSquaredDistance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Property: the Gram-trick kernel matches the naive ‖a−b‖² within 1e-9 on
// random matrices for any shape and worker count.
func TestQuickPairwiseSquaredDistancesMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, n, d := r.Intn(20)+1, r.Intn(30)+1, r.Intn(8)+1
		a := randomMatrix(r, q, d)
		b := randomMatrix(r, n, d)
		workers := r.Intn(5) // 0 = auto
		got := PairwiseSquaredDistances(a, b, workers)
		for i := 0; i < q; i++ {
			for j := 0; j < n; j++ {
				want := naiveSquaredDistance(a.Row(i), b.Row(j))
				if math.Abs(got.At(i, j)-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPairwiseSquaredDistancesEdgeShapes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ q, n, d int }{
		{0, 5, 3}, {5, 0, 3}, {0, 0, 3}, {1, 1, 0}, {4, 7, 0},
	} {
		a := randomMatrix(r, shape.q, shape.d)
		b := randomMatrix(r, shape.n, shape.d)
		got := PairwiseSquaredDistances(a, b, 0)
		if got.Rows != shape.q || got.Cols != shape.n {
			t.Errorf("shape %v: got %dx%d", shape, got.Rows, got.Cols)
		}
		// d=0: all distances are exactly zero
		if shape.d == 0 {
			for _, v := range got.Data {
				if v != 0 {
					t.Errorf("shape %v: nonzero distance %v in zero-dim space", shape, v)
				}
			}
		}
	}
}

// Identical rows must produce a non-negative (clamped) distance, and the
// diagonal of self-distances must be tiny.
func TestPairwiseSquaredDistancesSelfNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := randomMatrix(r, 25, 6)
	d2 := PairwiseSquaredDistances(a, a, 0)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Rows; j++ {
			if d2.At(i, j) < 0 {
				t.Fatalf("negative squared distance at (%d,%d): %v", i, j, d2.At(i, j))
			}
		}
		if d2.At(i, i) > 1e-9 {
			t.Errorf("self distance %d = %v, want ~0", i, d2.At(i, i))
		}
	}
}

// The kernel must be bit-for-bit identical across worker counts.
func TestPairwiseSquaredDistancesDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randomMatrix(r, 40, 9)
	b := randomMatrix(r, 33, 9)
	ref := PairwiseSquaredDistances(a, b, 1)
	for _, workers := range []int{2, 3, 8} {
		got := PairwiseSquaredDistances(a, b, workers)
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

func TestFingerprintDetectsMutation(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := randomMatrix(r, 10, 4)
	fp := a.Fingerprint()
	if a.Fingerprint() != fp {
		t.Fatal("fingerprint not stable")
	}
	a.Data[17] += 1e-12
	if a.Fingerprint() == fp {
		t.Error("fingerprint missed an in-place mutation")
	}
	b := a.Clone()
	if b.Fingerprint() != a.Fingerprint() {
		t.Error("clone fingerprint differs")
	}
	// shape participates: a 2x2 and 4x1 with the same data must differ
	m1 := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	m2 := &Matrix{Rows: 4, Cols: 1, Data: []float64{1, 2, 3, 4}}
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Error("shape not part of the fingerprint")
	}
}

func BenchmarkPairwiseSquaredDistances(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	q := randomMatrix(r, 64, 16)
	tr := randomMatrix(r, 512, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairwiseSquaredDistances(q, tr, 0)
	}
}

func BenchmarkPairwiseNaive(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	q := randomMatrix(r, 64, 16)
	tr := randomMatrix(r, 512, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewMatrix(q.Rows, tr.Rows)
		for x := 0; x < q.Rows; x++ {
			for y := 0; y < tr.Rows; y++ {
				out.Set(x, y, naiveSquaredDistance(q.Row(x), tr.Row(y)))
			}
		}
	}
}
