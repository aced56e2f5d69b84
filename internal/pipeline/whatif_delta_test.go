package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nde/internal/ml"
	"nde/internal/prov"
)

func randomVariants(r *rand.Rand, n, count int) []RemovalVariant {
	variants := make([]RemovalVariant, count)
	for v := range variants {
		var remove []prov.TupleID
		for row := 0; row < n; row++ {
			if r.Float64() < 0.25 {
				remove = append(remove, prov.TupleID{Table: "train", Row: row})
			}
		}
		variants[v] = RemovalVariant{Name: fmt.Sprintf("v%d", v), Remove: remove}
	}
	return variants
}

// The delta fast path (shared base index + RemoveRows per variant) must be
// bit-identical to the per-variant full rebuild, at every worker count.
func TestWhatIfDeltaEqualsForceRebuild(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	r := rand.New(rand.NewSource(701))
	variants := randomVariants(r, 40, 10)
	variants = append(variants, RemovalVariant{Name: "none"})

	oracle, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: 1, ForceRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range oracle {
			if got[i].Surviving != oracle[i].Surviving {
				t.Fatalf("workers=%d variant %q: surviving %d, rebuild %d",
					workers, variants[i].Name, got[i].Surviving, oracle[i].Surviving)
			}
			if math.Float64bits(got[i].Metric) != math.Float64bits(oracle[i].Metric) {
				t.Fatalf("workers=%d variant %q: metric %x, rebuild %x",
					workers, variants[i].Name, math.Float64bits(got[i].Metric), math.Float64bits(oracle[i].Metric))
			}
		}
	}
}

// A non-kNN model factory must keep the generic retrain path working.
func TestWhatIfDeltaNonKNNFallsBack(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewLogisticRegression() }
	variants := []RemovalVariant{
		{Name: "none"},
		{Name: "drop", Remove: []prov.TupleID{{Table: "train", Row: 0}, {Table: "train", Row: 3}}},
	}
	got, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Fatalf("variant %q: %+v, want %+v", variants[i].Name, got[i], oracle[i])
		}
	}
}

// Removing every surviving row must yield the NaN sentinel on the delta
// path too, not an error.
func TestWhatIfDeltaEmptyVariant(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	all := make([]prov.TupleID, 40)
	for i := range all {
		all[i] = prov.TupleID{Table: "train", Row: i}
	}
	results, err := WhatIfRemovalsConfig(ft, []RemovalVariant{{Name: "all", Remove: all}}, newModel, valid, WhatIfConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Surviving != 0 || !math.IsNaN(results[0].Metric) {
		t.Fatalf("empty variant = %+v, want 0 survivors and NaN metric", results[0])
	}
}
