// Package cleaning implements prioritized, iterative data cleaning — the
// tutorial's hands-on loop: rank training examples by a data-importance
// method, hand the most suspicious ones to a cleaning oracle, retrain, and
// measure how model quality recovers as the cleaning budget is spent.
// Comparing strategies' cleaning curves (random vs. noise scores vs.
// Shapley variants) quantifies how much prioritization matters.
package cleaning

import (
	"fmt"
	"math/rand"

	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/par"
)

// Oracle supplies ground-truth repairs for chosen training rows. In the
// tutorial this stands in for a human annotator or an expensive external
// lookup; implementations must not mutate their input.
type Oracle interface {
	// Clean returns a copy of d with the given rows repaired.
	Clean(d *ml.Dataset, rows []int) (*ml.Dataset, error)
}

// LabelOracle repairs labels from a hidden ground-truth vector.
type LabelOracle struct {
	Truth []int
}

// Clean replaces the labels of the given rows with the ground truth.
func (o *LabelOracle) Clean(d *ml.Dataset, rows []int) (*ml.Dataset, error) {
	if len(o.Truth) != d.Len() {
		return nil, fmt.Errorf("cleaning: oracle has %d truths for %d rows", len(o.Truth), d.Len())
	}
	out := d.Clone()
	for _, r := range rows {
		if r < 0 || r >= d.Len() {
			return nil, fmt.Errorf("cleaning: row %d out of range [0,%d)", r, d.Len())
		}
		out.Y[r] = o.Truth[r]
	}
	return out, nil
}

// Strategy produces a cleaning priority order (most suspicious first) for
// the current state of the training data.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Rank returns training row indices, most suspicious first.
	Rank(train, valid *ml.Dataset) ([]int, error)
}

// RandomStrategy cleans rows in a seeded random order — the baseline every
// importance method must beat.
type RandomStrategy struct {
	Seed int64
}

// Name returns "random".
func (s *RandomStrategy) Name() string { return "random" }

// Rank returns a random permutation of the rows.
func (s *RandomStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	return rand.New(rand.NewSource(s.Seed)).Perm(train.Len()), nil
}

// KNNShapleyStrategy ranks by ascending kNN-Shapley value.
type KNNShapleyStrategy struct {
	K int // neighbors (default 5)
}

// Name returns "knn-shapley".
func (s *KNNShapleyStrategy) Name() string { return "knn-shapley" }

// Rank computes kNN-Shapley scores and ranks ascending.
func (s *KNNShapleyStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	k := s.K
	if k <= 0 {
		k = 5
	}
	scores, err := importance.KNNShapley(k, train, valid)
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// LOOStrategy ranks by ascending leave-one-out importance of a model.
type LOOStrategy struct {
	NewModel func() ml.Classifier // default kNN(5)
}

// Name returns "loo".
func (s *LOOStrategy) Name() string { return "loo" }

// Rank computes LOO scores and ranks ascending.
func (s *LOOStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	newModel := s.NewModel
	if newModel == nil {
		newModel = func() ml.Classifier { return ml.NewKNN(5) }
	}
	u := importance.AccuracyUtility(newModel, train, valid)
	scores, err := importance.LeaveOneOut(train.Len(), u)
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// NoiseStrategy ranks by ascending out-of-fold self-confidence.
type NoiseStrategy struct {
	Seed int64
}

// Name returns "noise-score".
func (s *NoiseStrategy) Name() string { return "noise-score" }

// Rank computes self-confidence scores and ranks ascending.
func (s *NoiseStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	scores, err := importance.SelfConfidence(train, importance.NoiseConfig{Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// InfluenceStrategy ranks by ascending influence-function score.
type InfluenceStrategy struct{}

// Name returns "influence".
func (s *InfluenceStrategy) Name() string { return "influence" }

// Rank computes influence scores and ranks ascending.
func (s *InfluenceStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	scores, err := importance.Influence(train, valid, importance.InfluenceConfig{})
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// CurvePoint is one measurement of the cleaning curve.
type CurvePoint struct {
	Cleaned  int     // total rows handed to the oracle so far
	Accuracy float64 // test accuracy after retraining
}

// Result is the outcome of an iterative cleaning run.
type Result struct {
	Strategy string
	Curve    []CurvePoint
	Final    *ml.Dataset // the training data after all cleaning rounds
}

// IterativeClean runs the attendee-task loop: repeatedly (1) rank the
// current training data with the strategy, (2) clean the next batch of
// most-suspicious not-yet-cleaned rows via the oracle, (3) retrain and
// record test accuracy — until the budget of oracle calls is exhausted.
// The curve starts with the accuracy before any cleaning.
func IterativeClean(
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strat Strategy,
	newModel func() ml.Classifier,
	batch, budget int,
) (*Result, error) {
	sp := obs.StartSpan("cleaning.run")
	defer sp.End()
	return iterativeClean(sp, train, valid, test, oracle, strat, newModel, batch, budget)
}

// iterativeClean is IterativeClean reporting under an explicit parent span,
// so concurrent strategy runs (CompareStrategiesParallel) each get their own
// correctly nested trace instead of racing over the tracer's implicit
// current-span stack.
func iterativeClean(
	sp *obs.Span,
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strat Strategy,
	newModel func() ml.Classifier,
	batch, budget int,
) (*Result, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("cleaning: batch must be positive, got %d", batch)
	}
	if budget < 0 {
		return nil, fmt.Errorf("cleaning: negative budget %d", budget)
	}
	sp.SetStr("strategy", strat.Name()).SetInt("budget", int64(budget)).SetInt("batch", int64(batch))
	prog := obs.NewProgress("cleaning_budget", budget)
	defer prog.Done()

	cur := train.Clone()
	acc, err := ml.EvaluateAccuracy(newModel(), cur, test)
	if err != nil {
		return nil, err
	}
	obs.SetGauge("cleaning_accuracy", acc)
	res := &Result{Strategy: strat.Name(), Curve: []CurvePoint{{Cleaned: 0, Accuracy: acc}}}
	cleaned := make(map[int]bool)
	for len(cleaned) < budget && len(cleaned) < train.Len() {
		rsp := sp.StartChild("cleaning.round")
		order, err := strat.Rank(cur, valid)
		if err != nil {
			rsp.End()
			return nil, err
		}
		var next []int
		for _, i := range order {
			if len(next) == batch || len(cleaned)+len(next) == budget {
				break
			}
			if !cleaned[i] {
				next = append(next, i)
			}
		}
		if len(next) == 0 {
			rsp.End()
			break
		}
		cur, err = oracle.Clean(cur, next)
		if err != nil {
			rsp.End()
			return nil, err
		}
		for _, i := range next {
			cleaned[i] = true
		}
		acc, err = ml.EvaluateAccuracy(newModel(), cur, test)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Curve = append(res.Curve, CurvePoint{Cleaned: len(cleaned), Accuracy: acc})
		obs.Inc("cleaning_rounds_total")
		obs.Count("cleaning_rows_cleaned_total", int64(len(next)))
		obs.SetGauge("cleaning_accuracy", acc)
		prog.Tick(len(next))
		rsp.SetInt("cleaned", int64(len(next))).SetInt("total_cleaned", int64(len(cleaned))).
			SetStr("accuracy", fmt.Sprintf("%.4f", acc)).End()
	}
	res.Final = cur
	return res, nil
}

// CompareStrategiesParallel runs IterativeClean for every strategy on
// identical inputs and returns the results in strategy order. Strategies
// run concurrently on the shared worker pool (workers <= 0 = GOMAXPROCS,
// 1 = serial). Each strategy's cleaning loop
// is independent — IterativeClean clones the training data, oracles must
// not mutate their inputs, and newModel must return a fresh classifier per
// call — so results (curve order, accuracies, final datasets) are
// bit-for-bit identical for any worker count, including 1. Results and the
// first error (if any) are reduced in strategy order. Strategies that rank
// with kNN-Shapley share one neighbor index through the singleflight cache,
// so the distance geometry is still computed only once across the fan-out.
// The cleaning_strategies_inflight gauge tracks concurrency; each strategy
// reports its rounds under its own cleaning.run span.
func CompareStrategiesParallel(
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strategies []Strategy,
	newModel func() ml.Classifier,
	batch, budget, workers int,
) ([]*Result, error) {
	csp := obs.StartSpan("cleaning.compare")
	csp.SetInt("strategies", int64(len(strategies))).
		SetInt("workers", int64(par.Workers(workers, len(strategies))))
	defer csp.End()

	out := make([]*Result, len(strategies))
	_, err := par.ForErr("cleaning.compare", workers, len(strategies), func(_, i int) error {
		obs.AddGauge("cleaning_strategies_inflight", 1)
		defer obs.AddGauge("cleaning_strategies_inflight", -1)
		ssp := csp.StartChild("cleaning.run")
		defer ssp.End()
		r, err := iterativeClean(ssp, train, valid, test, oracle, strategies[i], newModel, batch, budget)
		if err != nil {
			return fmt.Errorf("cleaning: strategy %s: %w", strategies[i].Name(), err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AreaUnderCurve integrates a cleaning curve over the cleaned-count axis
// (trapezoid rule) — a single-number summary for strategy comparison;
// higher is better. A curve whose cleaned-count span is zero (every point
// at the same budget position, e.g. a budget exhausted at 0) has no axis to
// integrate over; the mean accuracy of its points is returned instead of
// the 0/0 NaN.
func AreaUnderCurve(curve []CurvePoint) float64 {
	if len(curve) < 2 {
		if len(curve) == 1 {
			return curve[0].Accuracy
		}
		return 0
	}
	span := float64(curve[len(curve)-1].Cleaned - curve[0].Cleaned)
	if span == 0 {
		mean := 0.0
		for _, p := range curve {
			mean += p.Accuracy
		}
		return mean / float64(len(curve))
	}
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := float64(curve[i].Cleaned - curve[i-1].Cleaned)
		area += dx * (curve[i].Accuracy + curve[i-1].Accuracy) / 2
	}
	return area / span
}
