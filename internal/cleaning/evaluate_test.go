package cleaning

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nde/internal/linalg"
	"nde/internal/ml"
)

// recordingOracle wraps an oracle and remembers, for every dataset it
// returns, the dataset it was given, so each strategy's chain of per-round
// training sets can be walked back from Result.Final even when strategies
// share the oracle concurrently. With nudge set it also moves one feature
// of the first repaired row, which takes the evaluation off the cached
// neighbor geometry.
type recordingOracle struct {
	inner Oracle
	nudge bool

	mu   sync.Mutex
	prev map[*ml.Dataset]*ml.Dataset
}

func (o *recordingOracle) Clean(d *ml.Dataset, rows []int) (*ml.Dataset, error) {
	out, err := o.inner.Clean(d, rows)
	if err != nil {
		return nil, err
	}
	if o.nudge && len(rows) > 0 {
		// out is the inner oracle's fresh copy, so d is left untouched
		out.X.Set(rows[0], 0, out.X.At(rows[0], 0)+0.25)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.prev == nil {
		o.prev = make(map[*ml.Dataset]*ml.Dataset)
	}
	o.prev[out] = d
	return out, nil
}

// rounds returns the training set behind every curve point of a result
// ending in final: the pre-cleaning copy first, final last.
func (o *recordingOracle) rounds(final *ml.Dataset) []*ml.Dataset {
	o.mu.Lock()
	defer o.mu.Unlock()
	chain := []*ml.Dataset{final}
	for d := o.prev[final]; d != nil; d = o.prev[d] {
		chain = append(chain, d)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Every curve point must be bit-identical to refitting the model on that
// round's training data and scoring the test set — whether the round was
// answered from the shared neighbor geometry (kNN factory, label-only
// repairs) or took the retrain fallback (features moved, non-kNN factory).
func TestKNNEvaluationMatchesRetrain(t *testing.T) {
	dirty, valid, test, truth, corrupted := dirtySetup(t, 80)
	budget := len(corrupted)
	strategies := []Strategy{
		&RandomStrategy{Seed: 7},
		&KNNShapleyStrategy{K: 5},
		&NoiseStrategy{Seed: 7},
	}
	type factory struct {
		name     string
		newModel func() ml.Classifier
		indexed  bool
	}
	var factories []factory
	for _, k := range []int{1, 5, dirty.Len() + 3} {
		k := k
		factories = append(factories, factory{fmt.Sprintf("knn K=%d", k), func() ml.Classifier { return ml.NewKNN(k) }, true})
	}
	factories = append(factories, factory{"gaussian-nb", func() ml.Classifier { return ml.NewGaussianNB() }, false})

	for _, f := range factories {
		ev, err := newEvaluator(dirty, test, f.newModel, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.ix != nil; got != f.indexed {
			t.Fatalf("%s: evaluation index built = %v, want %v", f.name, got, f.indexed)
		}
		for _, nudge := range []bool{false, true} {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				oracle := &recordingOracle{inner: &LabelOracle{Truth: truth}, nudge: nudge}
				results, err := CompareStrategiesParallel(dirty, valid, test, oracle, strategies, f.newModel, budget/4, budget, workers)
				if err != nil {
					t.Fatal(err)
				}
				for _, res := range results {
					rounds := oracle.rounds(res.Final)
					if len(rounds) != len(res.Curve) {
						t.Fatalf("%s nudge=%v workers=%d %s: %d rounds for %d curve points",
							f.name, nudge, workers, res.Strategy, len(rounds), len(res.Curve))
					}
					if len(res.Curve) < 2 {
						t.Fatalf("%s %s: no cleaning rounds ran", f.name, res.Strategy)
					}
					for p, cur := range rounds {
						want, err := ml.EvaluateAccuracy(f.newModel(), cur, test)
						if err != nil {
							t.Fatal(err)
						}
						if got := res.Curve[p].Accuracy; math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s nudge=%v workers=%d %s point %d: accuracy %v, retrain %v",
								f.name, nudge, workers, res.Strategy, p, got, want)
						}
					}
				}
			}
		}
	}
}

// cleaningData draws a 2-class dataset of Gaussian clusters with a share
// of flipped training labels, and returns the unflipped labels as truth.
func cleaningData(seed int64, nTrain, nValid, nTest, dim int, flip float64) (train, valid, test *ml.Dataset, truth []int) {
	const centers = 32
	r := rand.New(rand.NewSource(seed))
	ctr := linalg.NewMatrix(centers, dim)
	for i := range ctr.Data {
		ctr.Data[i] = r.NormFloat64() * 8
	}
	mk := func(rows int) *ml.Dataset {
		x := linalg.NewMatrix(rows, dim)
		y := make([]int, rows)
		for i := 0; i < rows; i++ {
			c := r.Intn(centers)
			row := x.Row(i)
			for j := range row {
				row[j] = ctr.At(c, j) + r.NormFloat64()
			}
			y[i] = c % 2
		}
		d, _ := ml.NewDataset(x, y)
		return d
	}
	train, valid, test = mk(nTrain), mk(nValid), mk(nTest)
	truth = append([]int(nil), train.Y...)
	for _, i := range r.Perm(nTrain)[:int(flip*float64(nTrain))] {
		train.Y[i] ^= 1
	}
	return train, valid, test, truth
}

var benchResults []*Result

// BenchmarkCompareStrategies times one random vs knn-shapley cleaning
// comparison at 2,000/200/500 train/valid/test rows, 32 dims, 5-NN,
// batch 20 and budget 200. The shared kNN-Shapley ranking index stays
// warm across iterations, as it does in a long-running server.
func BenchmarkCompareStrategies(b *testing.B) {
	train, valid, test, truth := cleaningData(1, 2000, 200, 500, 32, 0.2)
	oracle := &LabelOracle{Truth: truth}
	strategies := []Strategy{&RandomStrategy{Seed: 1}, &KNNShapleyStrategy{K: 5}}
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CompareStrategiesParallel(train, valid, test, oracle, strategies, newModel, 20, 200, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchResults = res
	}
}
