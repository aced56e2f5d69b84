package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"nde/internal/encode"
	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/prov"
)

// whatIfFixture builds a small featurized pipeline with a validation set in
// the same space, using an encoder fitted once (so fast and slow paths
// share the feature space).
func whatIfFixture(t *testing.T) (*Pipeline, *Node, *Featurized, *encode.ColumnTransformer, *ml.Dataset) {
	t.Helper()
	r := rand.New(rand.NewSource(601))
	n := 40
	xs := make([]float64, n)
	ys := make([]string, n)
	for i := range xs {
		c := i % 2
		xs[i] = float64(2*c-1)*2 + 0.5*r.NormFloat64()
		ys[i] = []string{"neg", "pos"}[c]
	}
	src := frame.MustNew(
		frame.NewFloatSeries("x", xs, nil),
		frame.NewStringSeries("y", ys, nil),
	)
	p := New()
	node := p.Source("train", src)
	res, err := p.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	ct := encode.NewColumnTransformer(encode.ColumnSpec{Column: "x", Encoder: encode.NewStandardScaler()})
	ft, err := Featurize(res, ct, "y", "")
	if err != nil {
		t.Fatal(err)
	}
	vx := linalg.NewMatrix(16, 1)
	vy := make([]int, 16)
	for i := 0; i < 16; i++ {
		c := i % 2
		vy[i] = c
		vx.Set(i, 0, float64(2*c-1)+0.2*r.NormFloat64())
	}
	valid, _ := ml.NewDataset(vx, vy)
	return p, node, ft, ct, valid
}

func TestWhatIfRemovalsBasic(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	variants := []RemovalVariant{
		{Name: "none", Remove: nil},
		{Name: "drop-5", Remove: []prov.TupleID{
			{Table: "train", Row: 0}, {Table: "train", Row: 1},
			{Table: "train", Row: 2}, {Table: "train", Row: 3},
			{Table: "train", Row: 4},
		}},
	}
	results, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Surviving != 40 {
		t.Errorf("none variant survivors = %d", results[0].Surviving)
	}
	if results[1].Surviving != 35 {
		t.Errorf("drop-5 survivors = %d", results[1].Surviving)
	}
	if results[0].Metric < 0.8 {
		t.Errorf("baseline metric = %v", results[0].Metric)
	}
	if _, err := WhatIfRemovalsConfig(ft, variants, nil, valid, WhatIfConfig{}); err == nil {
		t.Error("expected error for nil model factory")
	}
}

// Property: the provenance-shortcut what-if equals a full pipeline replay
// for random removal sets (using a shared fitted encoder so both paths live
// in the same feature space).
func TestQuickWhatIfEqualsReplay(t *testing.T) {
	p, node, ft, ct, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	featurize := func(res *Result) (*ml.Dataset, error) {
		x, err := ct.Transform(res.Frame)
		if err != nil {
			return nil, err
		}
		labels := res.Frame.MustColumn("y")
		y := make([]int, labels.Len())
		for i := range y {
			if labels.Str(i) == "pos" {
				y[i] = 1
			}
		}
		return ml.NewDataset(x, y)
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var remove []prov.TupleID
		for row := 0; row < 40; row++ {
			if r.Float64() < 0.3 {
				remove = append(remove, prov.TupleID{Table: "train", Row: row})
			}
		}
		if len(remove) >= 39 {
			return true // avoid emptying the training set
		}
		fast, err := WhatIfRemovalsConfig(ft, []RemovalVariant{{Name: "rand", Remove: remove}}, newModel, valid, WhatIfConfig{})
		if err != nil {
			return false
		}
		removed := make(map[prov.TupleID]bool, len(remove))
		for _, id := range remove {
			removed[id] = true
		}
		replayed, err := p.Replay(node, func(id prov.TupleID) bool { return removed[id] })
		if err != nil {
			return false
		}
		train, err := featurize(replayed)
		if err != nil {
			return false
		}
		slow, err := ml.EvaluateAccuracy(newModel(), train, valid)
		if err != nil {
			return false
		}
		return fast[0].Metric == slow
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGroupAggProvenance(t *testing.T) {
	data := frame.MustNew(
		frame.NewStringSeries("sector", []string{"a", "a", "b"}, nil),
		frame.NewFloatSeries("v", []float64{1, 3, 10}, nil),
	)
	p := New()
	src := p.Source("t", data)
	agg := p.GroupAgg(src, []string{"sector"}, []frame.Agg{{Col: "v", Func: frame.AggMean}})
	res, err := p.Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.NumRows() != 2 {
		t.Fatalf("groups = %d", res.Frame.NumRows())
	}
	if got := res.Frame.MustColumn("mean_v").Float(0); got != 2 {
		t.Errorf("mean a = %v", got)
	}
	// group "a" provenance: t[0] + t[1] (exists if either survives)
	pa := res.Prov[0]
	if !pa.DependsOn(prov.TupleID{Table: "t", Row: 0}) || !pa.DependsOn(prov.TupleID{Table: "t", Row: 1}) {
		t.Errorf("group provenance = %v", pa)
	}
	only0 := pa.EvalBool(func(id prov.TupleID) bool { return id.Row == 0 })
	if !only0 {
		t.Error("group should survive with only one member")
	}
	none := pa.EvalBool(func(id prov.TupleID) bool { return id.Row == 2 })
	if none {
		t.Error("group should vanish when all members are removed")
	}
	// plan label
	if got := agg.Label(); got != "GroupAgg(by=[sector], 1 aggs)" {
		t.Errorf("label = %q", got)
	}
	if KindGroupAgg.String() != "GroupAgg" {
		t.Error("kind name wrong")
	}
}

func TestGroupAggExistenceMatchesReplay(t *testing.T) {
	data := frame.MustNew(
		frame.NewStringSeries("g", []string{"a", "a", "b", "c"}, nil),
		frame.NewFloatSeries("v", []float64{1, 2, 3, 4}, nil),
	)
	p := New()
	src := p.Source("t", data)
	agg := p.GroupAgg(src, []string{"g"}, []frame.Agg{{Func: frame.AggCount}})
	full, err := p.Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	// remove t[0] and t[3]: group a survives (via t[1]), c vanishes
	removed := map[int]bool{0: true, 3: true}
	replayed, err := p.Replay(agg, func(id prov.TupleID) bool { return removed[id.Row] })
	if err != nil {
		t.Fatal(err)
	}
	var predicted []string
	for gi := 0; gi < full.Frame.NumRows(); gi++ {
		if full.Prov[gi].EvalBool(func(id prov.TupleID) bool { return !removed[id.Row] }) {
			predicted = append(predicted, full.Frame.MustColumn("g").Str(gi))
		}
	}
	actual, _ := replayed.Frame.MustColumn("g").Strings()
	if len(predicted) != len(actual) {
		t.Fatalf("predicted %v, actual %v", predicted, actual)
	}
	for i := range predicted {
		if predicted[i] != actual[i] {
			t.Errorf("group %d: predicted %s, actual %s", i, predicted[i], actual[i])
		}
	}
}

// Parallel what-if evaluation must be bit-for-bit identical to serial:
// same variant order, same metrics (compared as float bits), same survivor
// counts for workers 1, 4 and GOMAXPROCS.
func TestWhatIfRemovalsParallelDeterminism(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	r := rand.New(rand.NewSource(77))
	variants := make([]RemovalVariant, 12)
	for v := range variants {
		var remove []prov.TupleID
		for row := 0; row < 40; row++ {
			if r.Float64() < 0.2 {
				remove = append(remove, prov.TupleID{Table: "train", Row: row})
			}
		}
		variants[v] = RemovalVariant{Name: fmt.Sprintf("v%d", v), Remove: remove}
	}
	serial, err := WhatIfRemovalsParallel(ft, variants, newModel, valid, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := WhatIfRemovalsParallel(ft, variants, newModel, valid, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i].Name != serial[i].Name || got[i].Surviving != serial[i].Surviving ||
				math.Float64bits(got[i].Metric) != math.Float64bits(serial[i].Metric) {
				t.Errorf("workers=%d variant %d: got %+v, want %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

// A variant that removes every surviving output row must not abort the
// batch: it reports Surviving 0 with the NaN sentinel while its siblings
// are evaluated normally.
func TestWhatIfRemovalsAllTuplesRemoved(t *testing.T) {
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	all := make([]prov.TupleID, 40)
	for row := range all {
		all[row] = prov.TupleID{Table: "train", Row: row}
	}
	variants := []RemovalVariant{
		{Name: "none", Remove: nil},
		{Name: "everything", Remove: all},
		{Name: "drop-2", Remove: all[:2]},
	}
	results, err := WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Surviving != 0 || !math.IsNaN(results[1].Metric) {
		t.Errorf("all-removed variant = %+v, want Surviving 0 and NaN metric", results[1])
	}
	if results[0].Surviving != 40 || math.IsNaN(results[0].Metric) {
		t.Errorf("none variant = %+v", results[0])
	}
	if results[2].Surviving != 38 || math.IsNaN(results[2].Metric) {
		t.Errorf("drop-2 variant = %+v", results[2])
	}
}

// Per-variant spans appear under the batch span when obs is on.
func TestWhatIfRemovalsObsWiring(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	_, _, ft, _, valid := whatIfFixture(t)
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	variants := []RemovalVariant{
		{Name: "a"}, {Name: "b", Remove: []prov.TupleID{{Table: "train", Row: 1}}},
	}
	if _, err := WhatIfRemovalsParallel(ft, variants, newModel, valid, 2); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("whatif_variants_total").Value(); got != 2 {
		t.Errorf("whatif_variants_total = %d, want 2", got)
	}
	var batch *obs.Span
	for _, root := range obs.DefaultTracer().Roots() {
		if root.Name() == "pipeline.whatif" {
			batch = root
		}
	}
	if batch == nil {
		t.Fatal("no pipeline.whatif span recorded")
	}
	perVariant := 0
	for _, c := range batch.Children() {
		if c.Name() == "pipeline.whatif.variant" {
			perVariant++
		}
	}
	if perVariant != 2 {
		t.Errorf("batch span has %d per-variant children, want 2", perVariant)
	}
}
