package exp

import (
	"fmt"
	"math/rand"
	"time"

	"nde"
	"nde/internal/ml"
	"nde/internal/pipeline"
	"nde/internal/prov"
)

// E16Result carries the what-if optimization measurements.
type E16Result struct {
	Table *Table
	// Agree reports whether every variant's fast metric equals its replay.
	Agree bool
	// Speedup is total replay time / total fast time over all variants.
	Speedup float64
}

// E16WhatIfOptimization reproduces the data-centric what-if claim
// (Grafberger et al., SIGMOD 2023): evaluating many source-tuple-removal
// variants through provenance filtering gives the same answers as replaying
// the pipeline per variant, at a fraction of the cost — and the advantage
// grows with the number of variants.
func E16WhatIfOptimization(n int, seed int64) (*E16Result, error) {
	s := nde.LoadRecommendationLetters(n, seed)
	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		return nil, err
	}
	ft, err := hp.WithProvenance()
	if err != nil {
		return nil, err
	}
	valid, err := hp.FeaturizeValidationLike(s.Valid, s.Data.Jobs, s.Data.Social, hp.Encoder)
	if err != nil {
		return nil, err
	}
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	featurize := func(res *pipeline.Result) (*ml.Dataset, error) {
		x, err := hp.Encoder.Transform(res.Frame)
		if err != nil {
			return nil, err
		}
		labels := res.Frame.MustColumn("sentiment")
		y := make([]int, labels.Len())
		for i := range y {
			if labels.Str(i) == "positive" {
				y[i] = 1
			}
		}
		return ml.NewDataset(x, y)
	}

	r := rand.New(rand.NewSource(seed + 3))
	const nVariants = 20
	variants := make([]pipeline.RemovalVariant, nVariants)
	for v := range variants {
		var remove []prov.TupleID
		for row := 0; row < s.Train.NumRows(); row++ {
			if r.Float64() < 0.1 {
				remove = append(remove, prov.TupleID{Table: "train", Row: row})
			}
		}
		variants[v] = pipeline.RemovalVariant{Name: fmt.Sprintf("v%d", v), Remove: remove}
	}

	start := time.Now()
	fast, err := pipeline.WhatIfRemovalsParallel(ft, variants, newModel, valid, 0)
	if err != nil {
		return nil, err
	}
	fastTime := time.Since(start)

	agree := true
	start = time.Now()
	for v, variant := range variants {
		removed := make(map[prov.TupleID]bool, len(variant.Remove))
		for _, id := range variant.Remove {
			removed[id] = true
		}
		replayed, err := hp.Pipeline.Replay(hp.Output, func(id prov.TupleID) bool { return removed[id] })
		if err != nil {
			return nil, err
		}
		train, err := featurize(replayed)
		if err != nil {
			return nil, err
		}
		slow, err := ml.EvaluateAccuracy(newModel(), train, valid)
		if err != nil {
			return nil, err
		}
		if slow != fast[v].Metric {
			agree = false
		}
	}
	slowTime := time.Since(start)

	speedup := slowTime.Seconds() / fastTime.Seconds()
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("§2.2 — provenance-accelerated what-if analysis (%d removal variants)", nVariants),
		Columns: []string{"approach", "total time", "answers"},
		Notes:   "the provenance shortcut returns identical metrics without replaying joins/filters/encoders",
	}
	t.AddRow("replay pipeline per variant", slowTime.Round(time.Millisecond).String(), "ground truth")
	agreeText := "identical"
	if !agree {
		agreeText = "DIVERGED"
	}
	t.AddRow("provenance filtering", fastTime.Round(time.Millisecond).String(), agreeText)
	t.AddRow("speedup", fmt.Sprintf("%.1fx", speedup), "")
	return &E16Result{Table: t, Agree: agree, Speedup: speedup}, nil
}
