package pipeline_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/pipeline"
	"nde/internal/prov"
)

// sharedGeometryData returns a dataset over a copy of x with labels drawn
// by label(i, row).
func sharedGeometryData(t *testing.T, x *linalg.Matrix, label func(i int, row []float64) int) *ml.Dataset {
	t.Helper()
	cp := linalg.NewMatrix(x.Rows, x.Cols)
	copy(cp.Data, x.Data)
	y := make([]int, x.Rows)
	for i := range y {
		y[i] = label(i, x.Row(i))
	}
	d, err := ml.NewDataset(cp, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// What-if takes its kNN base from the process-wide neighbor-index cache,
// which may hold another dataset's labels for the same features. Primed by
// kNN-Shapley over (X, Y_A), a what-if over (X, Y_B) must vote with Y_B in
// every variant — Float64bits-equal to the per-variant rebuild — and must
// reuse the cached geometry instead of building its own.
func TestWhatIfSharedGeometryVotesWithCallerLabels(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	importance.ResetNeighborIndexCache()
	defer importance.ResetNeighborIndexCache()

	const n, nv, dim, k = 60, 25, 3, 3
	r := rand.New(rand.NewSource(1501))
	x := linalg.NewMatrix(n, dim)
	vx := linalg.NewMatrix(nv, dim)
	for _, m := range []*linalg.Matrix{x, vx} {
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
	}
	bySign := func(_ int, row []float64) int {
		if row[0] > 0 {
			return 1
		}
		return 0
	}
	byParity := func(i int, _ []float64) int { return i % 2 }
	trainA, validA := sharedGeometryData(t, x, byParity), sharedGeometryData(t, vx, byParity)
	trainB, validB := sharedGeometryData(t, x, bySign), sharedGeometryData(t, vx, bySign)

	if _, err := importance.KNNShapley(k, trainA, validA); err != nil {
		t.Fatal(err)
	}
	misses := func() int64 { return obs.Default().Counter("importance_neighbor_index_misses_total").Value() }
	if got := misses(); got != 1 {
		t.Fatalf("priming built %d indexes, want 1", got)
	}

	featurized := func(d *ml.Dataset) *pipeline.Featurized {
		p := make([]prov.Polynomial, d.Len())
		for i := range p {
			p[i] = prov.Var(prov.TupleID{Table: "train", Row: i})
		}
		return &pipeline.Featurized{Data: d, Prov: p}
	}
	all := make([]prov.TupleID, n)
	for i := range all {
		all[i] = prov.TupleID{Table: "train", Row: i}
	}
	variants := []pipeline.RemovalVariant{{Name: "all-kept"}, {Name: "all-removed", Remove: all}}
	for v := 0; v < 6; v++ {
		var rm []prov.TupleID
		for i := 0; i < n; i++ {
			if r.Float64() < 0.3 {
				rm = append(rm, prov.TupleID{Table: "train", Row: i})
			}
		}
		variants = append(variants, pipeline.RemovalVariant{Name: fmt.Sprintf("drop-%d", v), Remove: rm})
	}
	newModel := func() ml.Classifier { return ml.NewKNN(k) }
	ftB := featurized(trainB)
	oracle, err := pipeline.WhatIfRemovalsConfig(ftB, variants, newModel, validB, pipeline.WhatIfConfig{Workers: 1, ForceRebuild: true})
	if err != nil {
		t.Fatal(err)
	}

	// the test only has teeth if voting with Y_A would change a variant
	foreign, err := pipeline.WhatIfRemovalsConfig(featurized(trainA), variants, newModel, validB, pipeline.WhatIfConfig{Workers: 1, ForceRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := 2; i < len(variants); i++ {
		differs = differs || foreign[i].Metric != oracle[i].Metric
	}
	if !differs {
		t.Fatal("fixture: Y_A and Y_B give the same metric on every partial variant")
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		got, err := pipeline.WhatIfRemovalsConfig(ftB, variants, newModel, validB, pipeline.WhatIfConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range oracle {
			if got[i].Surviving != want.Surviving {
				t.Fatalf("workers=%d variant %q: surviving %d, rebuild %d", workers, want.Name, got[i].Surviving, want.Surviving)
			}
			if math.Float64bits(got[i].Metric) != math.Float64bits(want.Metric) {
				t.Fatalf("workers=%d variant %q: metric %v, rebuild %v", workers, want.Name, got[i].Metric, want.Metric)
			}
		}
	}
	if got := misses(); got != 1 {
		t.Errorf("what-if built its own base: importance_neighbor_index_misses_total = %d, want 1", got)
	}
}
