package ml

import (
	"fmt"
	"math"

	"nde/internal/linalg"
)

// KNN is a k-nearest-neighbors classifier under Euclidean distance. Ties in
// the vote break toward the smaller label; ties in distance break toward the
// smaller training index, so predictions are fully deterministic.
//
// Internally all ranking happens on squared distances (sqrt is monotone, so
// the order is identical and the per-pair sqrt is skipped), neighbor order
// is the (distance, index) total order — quickselect for the k nearest,
// the package's radix argsort for the full ranking — and votes are tallied
// in a label-indexed slice. Batch workloads should go through PredictBatch
// or a NeighborIndex, which compute all query×train distances through the
// batched linalg kernel.
type KNN struct {
	K     int
	train *Dataset
	nc    int // cached NumClasses of train
}

// NewKNN returns a kNN classifier with the given k (k >= 1).
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Fit memorizes the training set.
func (m *KNN) Fit(d *Dataset) error {
	if m.K < 1 {
		return fmt.Errorf("ml: kNN requires K >= 1, got %d", m.K)
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: kNN cannot fit an empty dataset")
	}
	m.train = d
	m.nc = d.NumClasses()
	return nil
}

// Neighbors returns the indices of all training points sorted by ascending
// distance to x (distance ties break by index). The slice is freshly
// allocated.
func (m *KNN) Neighbors(x []float64) []int {
	n := m.train.Len()
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = SquaredDistance(m.train.Row(i), x)
	}
	idx := make([]int, n)
	new(argsorter).argsort(d2, idx)
	return idx
}

// topK returns the k nearest training indices to x without sorting the
// full training set: quickselect over (squared distance, index) pairs.
func (m *KNN) topK(x []float64, k int) []distIdx {
	n := m.train.Len()
	if k > n {
		k = n
	}
	pairs := make([]distIdx, n)
	for i := 0; i < n; i++ {
		pairs[i] = distIdx{d: SquaredDistance(m.train.Row(i), x), i: i}
	}
	selectK(pairs, k)
	return pairs[:k]
}

// Predict returns the majority label among the k nearest training points.
func (m *KNN) Predict(x []float64) int {
	if m.train == nil {
		panic("ml: Predict before Fit")
	}
	votes := make([]int, m.nc)
	for _, p := range m.topK(x, m.K) {
		y := m.train.Y[p.i]
		if y >= len(votes) { // labels mutated after Fit; grow defensively
			votes = append(votes, make([]int, y+1-len(votes))...)
		}
		votes[y]++
	}
	best, bestVotes := 0, -1
	for y, v := range votes {
		if v > bestVotes {
			best, bestVotes = y, v
		}
	}
	return best
}

// PredictBatch classifies every row of queries, computing all distances at
// once through the batched kernel on the shared pool (workers <= 0 =
// auto). Predictions are identical to calling Predict row by row.
func (m *KNN) PredictBatch(queries *Dataset, workers int) ([]int, error) {
	if m.train == nil {
		return nil, fmt.Errorf("ml: PredictBatch before Fit")
	}
	ix, err := NewNeighborIndex(m.train, queries, workers)
	if err != nil {
		return nil, err
	}
	return ix.PredictBatch(m.K), nil
}

// Proba returns the vote fractions over classes among the k nearest points.
func (m *KNN) Proba(x []float64) []float64 {
	if m.train == nil {
		panic("ml: Proba before Fit")
	}
	nc := m.train.NumClasses()
	out := make([]float64, nc)
	k := m.K
	if k > m.train.Len() {
		k = m.train.Len()
	}
	for _, p := range m.topK(x, k) {
		out[m.train.Y[p.i]]++
	}
	linalg.Scale(1/float64(k), out)
	return out
}

// EuclideanDistance returns the L2 distance between two equal-length vectors.
func EuclideanDistance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}
