package ml

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nde/internal/linalg"
	"nde/internal/nderr"
)

func randomNeighborDataset(r *rand.Rand, n, dim, classes int) *Dataset {
	x := linalg.NewMatrix(n, dim)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(classes)
	}
	d, _ := NewDataset(x, y)
	return d
}

// Property: quickselect top-k matches the prefix of the full sort under
// the same (distance, index) total order.
func TestQuickTopKMatchesFullSortPrefix(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		train := randomNeighborDataset(r, n, 1+r.Intn(4), 2)
		queries := randomNeighborDataset(r, 1+r.Intn(6), train.Dim(), 2)
		ix, err := NewNeighborIndex(train, queries, 1+r.Intn(4))
		if err != nil {
			return false
		}
		k := 1 + r.Intn(n)
		for q := 0; q < queries.Len(); q++ {
			full := ix.Order(q)
			top := ix.TopK(q, k)
			if len(top) != k {
				return false
			}
			for i := range top {
				if top[i] != full[i] {
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

// The index order must agree with KNN.Neighbors (the per-query path).
func TestNeighborIndexOrderMatchesKNNNeighbors(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	train := randomNeighborDataset(r, 60, 5, 3)
	queries := randomNeighborDataset(r, 15, 5, 3)
	knn := NewKNN(5)
	if err := knn.Fit(train); err != nil {
		t.Fatal(err)
	}
	ix, err := NewNeighborIndex(train, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries.Len(); q++ {
		want := knn.Neighbors(queries.Row(q))
		got := ix.Order(q)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: index %d vs Neighbors %d", q, i, got[i], want[i])
			}
		}
	}
}

// TopK must handle duplicate points (distance ties) deterministically:
// ties break toward the smaller training index.
func TestTopKDistanceTiesBreakByIndex(t *testing.T) {
	x := linalg.NewMatrix(6, 1)
	// three pairs of duplicates at distances 0, 1, 4 from the query 0
	vals := []float64{1, 0, 1, 2, 0, 2}
	copy(x.Data, vals)
	train, _ := NewDataset(x, []int{0, 1, 0, 1, 0, 1})
	qx := linalg.NewMatrix(1, 1)
	queries, _ := NewDataset(qx, []int{0})
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 0, 2, 3, 5} // d2 0,0,1,1,4,4 with index tie-breaks
	got := ix.Order(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	for k := 1; k <= 6; k++ {
		top := ix.TopK(0, k)
		for i := 0; i < k; i++ {
			if top[i] != want[i] {
				t.Fatalf("k=%d: top = %v, want prefix of %v", k, top, want)
			}
		}
	}
}

// PredictBatch must equal per-row Predict for the wrapped KNN.
func TestPredictBatchMatchesPredict(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	train := randomNeighborDataset(r, 80, 4, 3)
	queries := randomNeighborDataset(r, 30, 4, 3)
	for _, k := range []int{1, 3, 7} {
		knn := NewKNN(k)
		if err := knn.Fit(train); err != nil {
			t.Fatal(err)
		}
		batch, err := knn.PredictBatch(queries, 0)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < queries.Len(); q++ {
			if want := knn.Predict(queries.Row(q)); batch[q] != want {
				t.Fatalf("k=%d query %d: batch %d vs predict %d", k, q, batch[q], want)
			}
		}
	}
}

func TestNeighborIndexTopKClamping(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	train := randomNeighborDataset(r, 5, 2, 2)
	queries := randomNeighborDataset(r, 2, 2, 2)
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.TopK(0, 100); len(got) != 5 {
		t.Errorf("k>n returned %d indices, want 5", len(got))
	}
	if got := ix.TopK(0, 0); got != nil {
		t.Errorf("k=0 returned %v, want nil", got)
	}
}

func TestNeighborIndexErrors(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	train := randomNeighborDataset(r, 5, 2, 2)
	empty := &Dataset{X: linalg.NewMatrix(0, 2)}
	if _, err := NewNeighborIndex(empty, train, 0); err == nil {
		t.Error("expected error for empty train")
	}
	mismatch := randomNeighborDataset(r, 4, 3, 2)
	if _, err := NewNeighborIndex(train, mismatch, 0); err == nil {
		t.Error("expected error for dim mismatch")
	}
}

// selectK against a reference sort, across random shapes and k.
func TestQuickSelectKProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		pairs := make([]distIdx, n)
		for i := range pairs {
			// coarse values force plenty of distance ties
			pairs[i] = distIdx{d: float64(r.Intn(5)), i: i}
		}
		ref := append([]distIdx(nil), pairs...)
		sort.Sort(byDistIdx(ref))
		k := 1 + r.Intn(n)
		selectK(pairs, k)
		got := append([]distIdx(nil), pairs[:k]...)
		sort.Sort(byDistIdx(got))
		for i := 0; i < k; i++ {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// exactTopKInto's insertion path (k <= insertionTopK) and its quickselect
// path must both return the sorted prefix of the (distance, index) order,
// including under heavy distance ties and rows sorted against the scan.
func TestExactTopKIntoBothPathsMatchSort(t *testing.T) {
	ix := &NeighborIndex{}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3*insertionTopK)
		row := make([]float64, n)
		for i := range row {
			row[i] = float64(r.Intn(6)) // coarse values force ties
		}
		if r.Intn(3) == 0 {
			sort.Sort(sort.Reverse(sort.Float64Slice(row))) // every scan step inserts
		}
		ref := make([]distIdx, n)
		for i, d := range row {
			ref[i] = distIdx{d: d, i: i}
		}
		sort.Sort(byDistIdx(ref))
		for _, k := range []int{1, min(n, insertionTopK), min(n, insertionTopK+1), 1 + r.Intn(n), n} {
			got := ix.exactTopKInto(row, k, make([]distIdx, n), make([]int, k))
			for i := range got {
				if got[i] != ref[i].i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Regression: a NaN feature makes the (distance, index) comparator a
// non-strict weak order, so quickselect used to return silently wrong
// top-k neighbors. The index build must reject poisoned features with a
// wrapped nderr.ErrNonFinite instead.
func TestNeighborIndexRejectsPoisonedFeatures(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	train := randomNeighborDataset(r, 30, 3, 2)
	queries := randomNeighborDataset(r, 5, 3, 2)

	poisoned := train.Clone()
	poisoned.X.Set(12, 1, math.NaN())
	if _, err := NewNeighborIndex(poisoned, queries, 1); err == nil {
		t.Fatal("expected error for NaN train feature")
	} else if !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("error %v does not wrap nderr.ErrNonFinite", err)
	} else if !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Fatalf("error %v does not wrap nderr.ErrDegenerateInput", err)
	}

	infQueries := queries.Clone()
	infQueries.X.Set(2, 0, math.Inf(-1))
	if _, err := NewNeighborIndex(train, infQueries, 1); err == nil {
		t.Fatal("expected error for Inf query feature")
	} else if !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("error %v does not wrap nderr.ErrNonFinite", err)
	}

	// the clean pair still builds and answers
	ix, err := NewNeighborIndex(train, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.TopK(0, 5)); got != 5 {
		t.Fatalf("TopK returned %d neighbors, want 5", got)
	}
}

// NewDataset is the other boundary: literal NaN/Inf features must be
// rejected at construction with the same error family.
func TestNewDatasetRejectsNonFinite(t *testing.T) {
	x := linalg.NewMatrix(4, 2)
	x.Set(3, 1, math.NaN())
	if _, err := NewDataset(x, []int{0, 1, 0, 1}); !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("NewDataset with NaN: err = %v, want ErrNonFinite", err)
	}
	x2 := linalg.NewMatrix(2, 1)
	x2.Set(0, 0, math.Inf(1))
	if _, err := NewDataset(x2, []int{0, 1}); !errors.Is(err, nderr.ErrNonFinite) {
		t.Fatalf("NewDataset with +Inf: err = %v, want ErrNonFinite", err)
	}
	if _, err := NewDataset(linalg.NewMatrix(2, 1), []int{0}); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Fatalf("NewDataset with mismatched labels: err = %v, want ErrShapeMismatch", err)
	}
}

// CheckTrainable classifies the degenerate training sets the importance
// methods must refuse.
func TestCheckTrainable(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	good := randomNeighborDataset(r, 10, 2, 2)
	if err := good.CheckTrainable("train"); err != nil {
		t.Fatalf("clean dataset flagged: %v", err)
	}
	single := randomNeighborDataset(r, 10, 2, 1)
	if err := single.CheckTrainable("train"); !errors.Is(err, nderr.ErrSingleClass) {
		t.Fatalf("single-class: err = %v, want ErrSingleClass", err)
	}
	var nilDS *Dataset
	if err := nilDS.CheckTrainable("train"); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("nil: err = %v, want ErrEmptyInput", err)
	}
	empty := &Dataset{X: linalg.NewMatrix(0, 2)}
	if err := empty.CheckTrainable("train"); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Fatalf("empty: err = %v, want ErrEmptyInput", err)
	}
}
