package pipeline

import (
	"fmt"
	"math"

	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/par"
	"nde/internal/prov"
)

// This file implements data-centric what-if analysis (Grafberger, Groth,
// Schelter; SIGMOD 2023): answering many "what would the model quality be
// if these source tuples were gone?" questions WITHOUT re-running the
// pipeline per variant. Because every featurized output row carries its
// provenance polynomial, a removal variant reduces to a boolean filter over
// the already-computed feature matrix — orders of magnitude cheaper than
// replaying joins, filters and encoders.

// RemovalVariant is one intervention: drop the given source tuples.
type RemovalVariant struct {
	Name   string
	Remove []prov.TupleID
}

// WhatIfResult pairs a variant with the metric after retraining on the
// surviving output rows. A variant that removes every surviving output row
// is reported with Surviving == 0 and Metric == NaN (there is no model to
// evaluate) instead of failing the whole batch; check with math.IsNaN
// before aggregating.
type WhatIfResult struct {
	Name      string
	Metric    float64
	Surviving int
}

// WhatIfRemovalsParallel is WhatIfRemovalsConfig with only the worker
// count set (<= 0 = GOMAXPROCS, 1 = serial).
func WhatIfRemovalsParallel(ft *Featurized, variants []RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset, workers int) ([]WhatIfResult, error) {
	return WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: workers})
}

// WhatIfConfig tunes WhatIfRemovalsConfig.
type WhatIfConfig struct {
	// Workers bounds the variant fan-out (<= 0 = GOMAXPROCS).
	Workers int
	// ForceRebuild disables the kNN delta fast path: every variant rebuilds
	// its neighbor index over the surviving rows from scratch. This is the
	// determinism oracle — results are bit-for-bit identical to the delta
	// path (asserted in tests), it just does the O(n·d·q) work per variant
	// the delta path skips.
	ForceRebuild bool
}

// WhatIfRemovalsConfig evaluates every removal variant against a
// featurized pipeline output: for each variant it selects the output rows
// whose provenance survives the removal, retrains a fresh model, and
// reports the metric. Correctness relies on the provenance contract
// verified in the pipeline tests (polynomial evaluation ≡ pipeline
// replay): the results equal full replays at a fraction of the cost.
//
// Variants are evaluated concurrently on the shared worker pool (every
// variant's filter → subset → retrain → evaluate chain is independent).
// Results are reduced in variant order, so the output — including which
// error is reported when several variants fail — is bit-for-bit identical
// for any worker count, including 1. newModel must be safe to call from
// concurrent goroutines; returning a fresh classifier per call, as every
// existing factory does, is sufficient.
//
// When the model factory produces a *ml.KNN (the default debugging model),
// each removal variant is answered by DERIVING an index from one base over
// the full featurized data (ml.NeighborIndex.RemoveRows): every variant
// costs an O(queries·k) top-k repair instead of a fresh distance matrix +
// retrain. The base is the process-wide shared index for (ft.Data, valid)
// (ml.SharedNeighborIndex) — the same geometry kNN-Shapley scores from —
// so a what-if after importance, or after an earlier what-if, computes no
// distances at all. Because a cached base may carry another dataset's
// labels, every vote uses ft.Data.Y (subset by the variant's survivors),
// never the index's own; per-variant children are not cached. Non-kNN
// factories, and ForceRebuild, use their own paths unchanged.
func WhatIfRemovalsConfig(ft *Featurized, variants []RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset, cfg WhatIfConfig) ([]WhatIfResult, error) {
	if newModel == nil {
		return nil, fmt.Errorf("pipeline: WhatIfRemovalsConfig needs a model factory")
	}
	workers := cfg.Workers
	sp := obs.StartSpan("pipeline.whatif")
	sp.SetInt("variants", int64(len(variants))).
		SetInt("workers", int64(par.Workers(workers, len(variants))))
	defer sp.End()

	knnK := 0
	if knn, ok := newModel().(*ml.KNN); ok && knn.K >= 1 {
		knnK = knn.K
	}
	var base *ml.NeighborIndex
	if knnK > 0 && !cfg.ForceRebuild && ft.Data.Len() > 0 {
		// The shared base index over the unmodified featurized data; each
		// variant derives from it. A build failure (e.g. non-finite features
		// a caller slipped past featurization) falls back to the generic
		// retrain path, which reports the same condition per variant.
		if ix, err := ml.SharedNeighborIndex(ft.Data, valid, workers); err == nil {
			base = ix
			// warm distances + top-k before the fan-out with the caller's
			// labels; a label error resurfaces from every variant's vote
			_, _ = base.PredictBatchLabels(knnK, ft.Data.Y)
		}
	}

	out := make([]WhatIfResult, len(variants))
	_, err := par.ForErr("pipeline.whatif", workers, len(variants), func(_, i int) error {
		vsp := sp.StartChild("pipeline.whatif.variant")
		vsp.SetStr("name", variants[i].Name)
		defer vsp.End()
		var res WhatIfResult
		var err error
		if knnK > 0 && (base != nil || cfg.ForceRebuild) {
			res, err = evalRemovalVariantKNN(ft, variants[i], base, knnK, valid)
		} else {
			res, err = evalRemovalVariant(ft, variants[i], newModel, valid)
		}
		if err != nil {
			return fmt.Errorf("pipeline: what-if variant %q: %w", variants[i].Name, err)
		}
		out[i] = res
		vsp.SetInt("surviving", int64(res.Surviving))
		return nil
	})
	obs.Count("whatif_variants_total", int64(len(variants)))
	if base != nil {
		obs.Count("whatif_delta_variants_total", int64(len(variants)))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evalRemovalVariant runs one variant's filter → subset → retrain →
// evaluate chain. It touches only its arguments and freshly allocated
// state, which is what makes the variant fan-out safe.
func evalRemovalVariant(ft *Featurized, v RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset) (WhatIfResult, error) {
	removed := make(map[prov.TupleID]bool, len(v.Remove))
	for _, id := range v.Remove {
		removed[id] = true
	}
	var keep []int
	for o, p := range ft.Prov {
		if p.EvalBool(func(id prov.TupleID) bool { return !removed[id] }) {
			keep = append(keep, o)
		}
	}
	if len(keep) == 0 {
		// the variant removed every surviving output row: report the
		// documented NaN sentinel rather than failing the whole batch
		return WhatIfResult{Name: v.Name, Metric: math.NaN(), Surviving: 0}, nil
	}
	subset := ft.Data.Subset(keep)
	metric, err := ml.EvaluateAccuracy(newModel(), subset, valid)
	if err != nil {
		return WhatIfResult{}, err
	}
	return WhatIfResult{Name: v.Name, Metric: metric, Surviving: len(keep)}, nil
}

// evalRemovalVariantKNN answers one variant for a kNN model from neighbor
// indexes. With a base index it derives the variant's index via RemoveRows
// — no fresh distance kernel — and votes with ft.Data.Y; with base == nil
// (the ForceRebuild oracle) it builds the variant's index from scratch.
// Both arms classify through the same exact top-k machinery, so their
// metrics are bit-for-bit identical.
func evalRemovalVariantKNN(ft *Featurized, v RemovalVariant, base *ml.NeighborIndex, k int, valid *ml.Dataset) (WhatIfResult, error) {
	removed := make(map[prov.TupleID]bool, len(v.Remove))
	for _, id := range v.Remove {
		removed[id] = true
	}
	n := ft.Data.Len()
	keep := make([]int, 0, n)
	for o, p := range ft.Prov {
		if p.EvalBool(func(id prov.TupleID) bool { return !removed[id] }) {
			keep = append(keep, o)
		}
	}
	if len(keep) == 0 {
		return WhatIfResult{Name: v.Name, Metric: math.NaN(), Surviving: 0}, nil
	}
	var preds []int
	var err error
	switch {
	case base != nil && len(keep) == n:
		preds, err = base.PredictBatchLabels(k, ft.Data.Y)
	case base != nil:
		rm := make([]int, 0, n-len(keep))
		next := 0
		for o := 0; o < n; o++ {
			if next < len(keep) && keep[next] == o {
				next++
				continue
			}
			rm = append(rm, o)
		}
		var child *ml.NeighborIndex
		child, err = base.RemoveRows(rm)
		if err == nil {
			// survivor labels from the caller's data, not the base's
			y := make([]int, len(keep))
			for o, i := range keep {
				y[o] = ft.Data.Y[i]
			}
			preds, err = child.PredictBatchLabels(k, y)
		}
	default: // rebuild oracle
		var ix *ml.NeighborIndex
		ix, err = ml.NewNeighborIndex(ft.Data.Subset(keep), valid, 1)
		if err == nil {
			preds = ix.PredictBatch(k)
		}
	}
	if err != nil {
		return WhatIfResult{}, err
	}
	return WhatIfResult{Name: v.Name, Metric: ml.Accuracy(valid.Y, preds), Surviving: len(keep)}, nil
}
