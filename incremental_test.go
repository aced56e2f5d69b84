package nde_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"nde"
	"nde/internal/importance"
	"nde/internal/ml"
)

func sessionFixture(t *testing.T) (*nde.Dataset, *nde.Dataset) {
	t.Helper()
	s := nde.LoadRecommendationLetters(160, 17)
	dTrain, dValid, _, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	return dTrain, dValid
}

// A DebugSession's chained delta updates must stay Float64bits-identical to
// recomputing kNN-Shapley from scratch over the surviving subset, and its
// Accuracy must match a freshly rebuilt index.
func TestDebugSessionMatchesRecompute(t *testing.T) {
	nde.ResetNeighborIndexCache()
	defer nde.ResetNeighborIndexCache()
	dTrain, dValid := sessionFixture(t)
	const k = 5
	sess, err := nde.NewDebugSession(dTrain, dValid, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Len() != dTrain.Len() {
		t.Fatalf("session opened with %d rows, want %d", sess.Len(), dTrain.Len())
	}
	check := func(scores nde.Scores) {
		t.Helper()
		ids := sess.OriginalIDs()
		oracle, err := importance.KNNShapley(k, dTrain.Subset(ids), dValid)
		if err != nil {
			t.Fatal(err)
		}
		if len(scores) != len(oracle) {
			t.Fatalf("%d scores for %d surviving rows", len(scores), len(oracle))
		}
		for i := range oracle {
			if math.Float64bits(scores[i]) != math.Float64bits(float64(oracle[i])) {
				t.Fatalf("score[%d] = %x, recompute %x", i, math.Float64bits(scores[i]), math.Float64bits(oracle[i]))
			}
		}
		fresh, err := ml.NewNeighborIndex(dTrain.Subset(ids), dValid, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantAcc := ml.Accuracy(dValid.Y, fresh.PredictBatch(k))
		acc, err := sess.Accuracy()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(acc) != math.Float64bits(wantAcc) {
			t.Fatalf("Accuracy = %v, rebuild %v", acc, wantAcc)
		}
	}
	check(sess.Scores())
	for _, rm := range [][]int{{0, 7, 7, 33}, {1, 2, 3}, {60, 61, 62, 63, 64}} {
		scores, err := sess.RemoveRows(rm)
		if err != nil {
			t.Fatal(err)
		}
		check(scores)
	}
}

func TestDebugSessionAtomicOnError(t *testing.T) {
	nde.ResetNeighborIndexCache()
	defer nde.ResetNeighborIndexCache()
	dTrain, dValid := sessionFixture(t)
	sess, err := nde.NewDebugSession(dTrain, dValid, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Scores()
	ids := sess.OriginalIDs()
	if _, err := sess.RemoveRows([]int{0, dTrain.Len()}); !errors.Is(err, nde.ErrDegenerateInput) {
		t.Fatalf("out-of-range removal err = %v, want ErrDegenerateInput", err)
	}
	if sess.Len() != dTrain.Len() {
		t.Fatalf("failed removal shrank session to %d rows", sess.Len())
	}
	after := sess.Scores()
	for i := range before {
		if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
			t.Fatalf("failed removal changed score[%d]", i)
		}
	}
	for i := range ids {
		if sess.OriginalIDs()[i] != ids[i] {
			t.Fatalf("failed removal changed OriginalIDs[%d]", i)
		}
	}
	// a removal that leaves fewer rows than k is rejected, session unchanged
	nearlyAll := make([]int, dTrain.Len()-2)
	for i := range nearlyAll {
		nearlyAll[i] = i
	}
	if _, err := sess.RemoveRows(nearlyAll); !errors.Is(err, nde.ErrBadK) {
		t.Fatalf("removal below k err = %v, want ErrBadK", err)
	}
	if sess.Len() != dTrain.Len() {
		t.Fatalf("rejected removal shrank session to %d rows", sess.Len())
	}
	if scores, err := sess.RemoveRows(nil); err != nil || len(scores) != dTrain.Len() {
		t.Fatalf("empty removal = (%d scores, %v), want full-length no-op", len(scores), err)
	}
}

// Race-stress: concurrent WhatIf callers share one base index while
// a DebugSession derives delta indexes from the same cache and a churn
// goroutine resets it. Run under -race; results must stay bit-identical to
// the serial baseline throughout.
func TestStressWhatIfUnderIndexMutation(t *testing.T) {
	nde.ResetNeighborIndexCache()
	defer nde.ResetNeighborIndexCache()
	s := nde.LoadRecommendationLetters(120, 23)
	hp, err := nde.BuildHiringPipeline(s.Train, s.Data.Jobs, s.Data.Social)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := hp.WithProvenance()
	if err != nil {
		t.Fatal(err)
	}
	validLike, err := hp.FeaturizeValidationLike(s.Valid, s.Data.Jobs, s.Data.Social, hp.Encoder)
	if err != nil {
		t.Fatal(err)
	}
	var variants []nde.RemovalVariant
	for v := 0; v < 5; v++ {
		rows := make([]nde.TupleID, 0, 3)
		for r := v * 4; r < v*4+3 && r < hp.TrainRows; r++ {
			rows = append(rows, nde.TupleID{Table: "train", Row: r})
		}
		variants = append(variants, nde.RemovalVariant{Name: fmt.Sprintf("drop-%d", v), Remove: rows})
	}
	baseline, err := nde.WhatIf(ft, variants, validLike, nde.WhatIfOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dTrain, dValid, _, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		t.Fatal(err)
	}

	goroutines, iters := 4, 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines+2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				opts := nde.WhatIfOptions{Workers: 1 + (g+it)%4, ForceRebuild: g%2 == 1}
				got, err := nde.WhatIf(ft, variants, validLike, opts)
				if err != nil {
					errc <- err
					return
				}
				for i := range baseline {
					if got[i].Surviving != baseline[i].Surviving ||
						math.Float64bits(got[i].Metric) != math.Float64bits(baseline[i].Metric) {
						errc <- fmt.Errorf("goroutine %d variant %q: %+v, baseline %+v", g, variants[i].Name, got[i], baseline[i])
						return
					}
				}
			}
		}(g)
	}
	// session goroutine: derives delta indexes from the shared cache while
	// the what-if callers run
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			sess, err := nde.NewDebugSession(dTrain, dValid, 5, 2)
			if err != nil {
				errc <- err
				return
			}
			for _, rm := range [][]int{{it, it + 10}, {0, 1}} {
				if _, err := sess.RemoveRows(rm); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	// churn goroutine: the cache reset path must never corrupt in-flight work
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters*2; it++ {
			nde.ResetNeighborIndexCache()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
