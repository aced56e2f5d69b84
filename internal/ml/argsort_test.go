package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"nde/internal/linalg"
	"nde/internal/nderr"
)

// refOrder is the comparison-sort reference: ids ordered by (d[id], id)
// under float comparison, so -0 and +0 tie and fall back to the id.
type refOrder struct {
	d   []float64
	idx []int
}

func (s *refOrder) Len() int { return len(s.idx) }
func (s *refOrder) Less(a, b int) bool {
	da, db := s.d[s.idx[a]], s.d[s.idx[b]]
	if da != db {
		return da < db
	}
	return s.idx[a] < s.idx[b]
}
func (s *refOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

func referenceArgsort(d []float64) []int {
	idx := make([]int, len(d))
	for i := range idx {
		idx[i] = i
	}
	sort.Sort(&refOrder{d: d, idx: idx})
	return idx
}

// argsortRow draws one row of n squared distances of the given shape.
func argsortRow(r *rand.Rand, shape string, n int) []float64 {
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	d := make([]float64, n)
	for i := range d {
		switch shape {
		case "random":
			d[i] = r.Float64() * 100
		case "ties": // heavy ties: four distinct values
			d[i] = float64(r.Intn(4))
		case "equal":
			d[i] = 3.5
		case "zeros": // +0/-0 mixed with a few positives
			d[i] = [...]float64{0, negZero, negZero, 1}[r.Intn(4)]
		case "inf":
			d[i] = [...]float64{math.Inf(1), math.MaxFloat64, 1, 0}[r.Intn(4)]
		case "subnormal": // differ only in the lowest mantissa byte
			d[i] = tiny * float64(r.Intn(8))
		case "mixed":
			d[i] = [...]float64{0, negZero, tiny, tiny * 3, 2.5, 2.5, math.MaxFloat64, math.Inf(1), r.Float64()}[r.Intn(9)]
		default:
			panic(shape)
		}
	}
	return d
}

var argsortShapes = []string{"random", "ties", "equal", "zeros", "inf", "subnormal", "mixed"}

func assertSameOrder(t *testing.T, got, want []int, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds id %d, comparison sort has %d", ctx, i, got[i], want[i])
		}
	}
}

// The radix argsort must order ids exactly as the (distance, id)
// comparison sort does — ties, signed zeros, +Inf and subnormals included —
// at every call site: a root index's Order, an AppendRows child's Order
// (whose extra-slot order comes from the block argsort), and
// KNN.Neighbors.
func TestArgsortMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var s argsorter // one scratch reused across every row, as a worker does
	for _, n := range []int{1, 2, 255, 256, 65537, 20000} {
		for _, shape := range argsortShapes {
			d := argsortRow(r, shape, n)
			got := make([]int, n)
			s.argsort(d, got)
			assertSameOrder(t, got, referenceArgsort(d), fmt.Sprintf("argsort n=%d %s", n, shape))
		}
	}

	// Order: a root index sorts its cached distance rows; plant rows of
	// every shape as the index's distance matrix
	for _, n := range []int{1, 2, 255, 256, 65537} {
		const nq = 7
		train, err := NewDataset(linalg.NewMatrix(n, 1), make([]int, n))
		if err != nil {
			t.Fatal(err)
		}
		queries, err := NewDataset(linalg.NewMatrix(nq, 1), make([]int, nq))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			ix, err := NewNeighborIndex(train, queries, workers)
			if err != nil {
				t.Fatal(err)
			}
			d2 := linalg.NewMatrix(nq, n)
			for q := 0; q < nq; q++ {
				copy(d2.Row(q), argsortRow(r, argsortShapes[q], n))
			}
			ix.d2Once.Do(func() { ix.d2 = d2 })
			for q := 0; q < nq; q++ {
				assertSameOrder(t, ix.Order(q), referenceArgsort(d2.Row(q)),
					fmt.Sprintf("Order n=%d workers=%d %s", n, workers, argsortShapes[q]))
			}
		}
	}

	// AppendRows then Order, and KNN.Neighbors, over features whose
	// distances tie heavily (small integer grid, duplicate rows) or are
	// subnormal (tiny coordinates)
	grid := func(n, dim int) *linalg.Matrix {
		x := linalg.NewMatrix(n, dim)
		for i := range x.Data {
			x.Data[i] = float64(r.Intn(3))
		}
		return x
	}
	tinyRows := func(n, dim int) *linalg.Matrix {
		x := linalg.NewMatrix(n, dim)
		for i := range x.Data {
			x.Data[i] = 1e-160 * float64(r.Intn(4))
		}
		return x
	}
	for _, mk := range []struct {
		name string
		x    func(n, dim int) *linalg.Matrix
	}{{"grid", grid}, {"tiny", tinyRows}} {
		for _, n := range []int{1, 2, 255, 256, 2000} {
			const dim = 2
			train, err := NewDataset(mk.x(n, dim), make([]int, n))
			if err != nil {
				t.Fatal(err)
			}
			queries, err := NewDataset(mk.x(5, dim), make([]int, 5))
			if err != nil {
				t.Fatal(err)
			}
			ix, err := NewNeighborIndex(train, queries, 2)
			if err != nil {
				t.Fatal(err)
			}
			ix.Order(0) // the child merges the root's order with the block's
			for _, m := range []int{1, 2, 255, 256} {
				child, err := ix.AppendRows(mk.x(m, dim), make([]int, m))
				if err != nil {
					t.Fatal(err)
				}
				d2 := child.D2()
				for q := 0; q < queries.Len(); q++ {
					assertSameOrder(t, child.Order(q), referenceArgsort(d2.Row(q)),
						fmt.Sprintf("AppendRows %s n=%d m=%d query %d", mk.name, n, m, q))
				}
			}
			knn := NewKNN(1)
			if err := knn.Fit(train); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < queries.Len(); q++ {
				x := queries.Row(q)
				d := make([]float64, n)
				for i := range d {
					d[i] = SquaredDistance(train.Row(i), x)
				}
				assertSameOrder(t, knn.Neighbors(x), referenceArgsort(d),
					fmt.Sprintf("KNN.Neighbors %s n=%d query %d", mk.name, n, q))
			}
		}
	}
}

// Finite features whose squared norm overflows used to reach the Gram
// kernel and come back as NaN distances (train {1e160, 0, 2e160} against
// query {1e160} gave the row [NaN +Inf NaN]); rows whose norms sit just
// under the overflow gave Inf − Inf = NaN too. Both must be rejected at
// build time, for train rows, query rows and appended blocks alike.
func TestNeighborIndexRejectsOverflowingNorms(t *testing.T) {
	column := func(vals ...float64) *linalg.Matrix {
		x := linalg.NewMatrix(len(vals), 1)
		copy(x.Data, vals)
		return x
	}
	col := func(vals ...float64) *Dataset {
		d, err := NewDataset(column(vals...), make([]int, len(vals)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name           string
		train, queries *Dataset
	}{
		{"train norm overflows", col(1e160, 0, 2e160), col(1e160)},
		{"query norm overflows", col(1, 2), col(1e160)},
		{"Inf minus Inf", col(1.2e154, 0), col(1.2e154)},
	}
	for _, c := range cases {
		if _, err := NewNeighborIndex(c.train, c.queries, 1); !errors.Is(err, nderr.ErrNonFinite) {
			t.Errorf("%s: err = %v, want ErrNonFinite", c.name, err)
		}
	}

	ix, err := NewNeighborIndex(col(1e150, 0, -1e150), col(1e150), 1)
	if err != nil {
		t.Fatalf("large but representable rows rejected: %v", err)
	}
	for q, v := range ix.D2().Row(0) {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("d2[%d] = %v, want in [+0, +Inf]", q, v)
		}
	}
	if _, err := ix.AppendRows(column(2e160), []int{0}); !errors.Is(err, nderr.ErrNonFinite) {
		t.Errorf("AppendRows with an overflowing norm: err = %v, want ErrNonFinite", err)
	}
	if _, err := ix.AppendRows(column(math.NaN()), []int{0}); !errors.Is(err, nderr.ErrNonFinite) {
		t.Errorf("AppendRows with a NaN feature: err = %v, want ErrNonFinite", err)
	}
}

// BenchmarkNeighborOrder measures the cold full ordering of a 64-query ×
// 20k-row index — the argsort of every distance row — with the distance
// matrix computed outside the timer.
func BenchmarkNeighborOrder(b *testing.B) {
	r := rand.New(rand.NewSource(43))
	train := randomNeighborDataset(r, 20000, 32, 2)
	queries := randomNeighborDataset(r, 64, 32, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := NewNeighborIndex(train, queries, 0)
		if err != nil {
			b.Fatal(err)
		}
		ix.D2()
		b.StartTimer()
		ix.Order(0)
	}
}
