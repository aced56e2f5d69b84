package importance

import (
	"fmt"
	"sort"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
)

// KNNShapley computes exact Shapley values for the k-nearest-neighbor
// utility from one neighbor ordering and an O(n) recurrence per validation
// point (Jia et al., VLDB 2019).
//
// For one validation point (x, y) the utility of a training subset S is
// U(S) = (1/K) Σ_{j=1..min(K,|S|)} 1[label of j-th nearest point in S = y],
// i.e. the fraction of the K nearest neighbors that vote correctly. The
// Shapley values of this utility have the closed-form recurrence
//
//	s_(N)  = 1[y_(N) = y] / N
//	s_(j)  = s_(j+1) + (1[y_(j)=y] − 1[y_(j+1)=y]) / K · min(K, j) / j
//
// where (j) indexes training points sorted by ascending distance to x.
// The total score of a training point is its sum over validation points,
// normalized by the number of validation points.
//
// Distances and neighbor orders come from the shared neighbor-index cache
// (ml.SharedNeighborIndex): the valid×train squared-distance matrix is
// computed once through the batched linalg kernel and reused across calls.
// KNNShapley is the serial path (workers = 1) of KNNShapleyParallel.
func KNNShapley(k int, train, valid *ml.Dataset) (Scores, error) {
	return knnShapley(k, train, valid, 1)
}

// KNNShapleyParallel computes the same exact kNN-Shapley values as
// KNNShapley with the recurrence fanned out over validation points on the
// shared worker pool (workers <= 0 = GOMAXPROCS). The result is
// Float64bits-identical for every worker count: see knnShapleyOverIndex.
func KNNShapleyParallel(k int, train, valid *ml.Dataset, workers int) (Scores, error) {
	return knnShapley(k, train, valid, workers)
}

func knnShapley(k int, train, valid *ml.Dataset, workers int) (Scores, error) {
	if err := validateKNNShapley(k, train, valid); err != nil {
		return nil, err
	}
	sp := obs.StartSpan("importance.knnshapley")
	sp.SetInt("k", int64(k)).SetInt("train", int64(train.Len())).
		SetInt("valid", int64(valid.Len())).SetInt("workers", int64(par.Workers(workers, valid.Len())))
	defer sp.End()
	ix, err := ml.SharedNeighborIndex(train, valid, workers)
	if err != nil {
		return nil, err
	}
	return knnShapleyOverIndex(k, ix, train.Y, valid, workers)
}

// ResetNeighborIndexCache drops every index in the process-wide
// neighbor-index cache (ml.ResetNeighborIndexCache): the geometries
// kNN-Shapley scores from and the bases what-if analysis derives its
// variants from.
func ResetNeighborIndexCache() { ml.ResetNeighborIndexCache() }

// knnShapleyOverIndex is the one kNN-Shapley loop: the closed form over
// the neighbor orders of ix, with labels read from trainY (never from the
// index, whose cached datasets may carry stale labels). Validation points
// are scored in parallel and summed in validation-point order
// (orderedSum), so every score adds its per-point contributions in the
// serial order and is Float64bits-identical for any worker count. The
// resolved worker count is the importance_knnshapley_workers gauge;
// points per worker feed the importance_knnshapley_points_per_worker
// histogram.
func knnShapleyOverIndex(k int, ix *ml.NeighborIndex, trainY []int, valid *ml.Dataset, workers int) (Scores, error) {
	n, q := ix.Train.Len(), valid.Len()
	if len(trainY) != n {
		return nil, nderr.Mismatch("importance: kNN-Shapley labels", n, len(trainY))
	}
	obs.SetGauge("importance_knnshapley_workers", float64(par.Workers(workers, q)))
	prog := obs.NewProgress("knnshapley", q)
	defer prog.Done()
	scores, perWorker, _ := orderedSum("importance.knnshapley", workers, q, n, func(_ int, c []float64, v int) error {
		knnShapleyContrib(k, trainY, valid.Y[v], ix.Order(v), c)
		prog.Tick(1)
		return nil
	})
	if obs.Enabled() {
		for _, cnt := range perWorker {
			obs.ObserveWith("importance_knnshapley_points_per_worker", float64(cnt), obs.ExpBuckets(1, 2, 13))
		}
	}
	inv := 1 / float64(q)
	for i := range scores {
		scores[i] *= inv
	}
	return scores, nil
}

// knnShapleyContrib fills c with one validation point's Shapley
// recurrence, given its label y and the neighbor order of the training
// points: c[order[j]] is the contribution of the training point at rank j.
func knnShapleyContrib(k int, trainY []int, y int, order []int, c []float64) {
	n := len(order)
	match := func(pos int) float64 {
		if trainY[order[pos]] == y {
			return 1
		}
		return 0
	}
	s := match(n-1) / float64(n)
	c[order[n-1]] = s
	for j := n - 2; j >= 0; j-- {
		rank := j + 1 // 1-based rank of position j
		s += (match(j) - match(j+1)) / float64(k) * minF(float64(k), float64(rank)) / float64(rank)
		c[order[j]] = s
	}
}

func validateKNNShapley(k int, train, valid *ml.Dataset) error {
	if k < 1 {
		return fmt.Errorf("importance: kNN-Shapley requires K >= 1, got %d", k)
	}
	if train.Len() == 0 || valid.Len() == 0 {
		return fmt.Errorf("importance: kNN-Shapley needs non-empty train (%d) and valid (%d)", train.Len(), valid.Len())
	}
	if train.Dim() != valid.Dim() {
		return fmt.Errorf("importance: dimension mismatch %d vs %d", train.Dim(), valid.Dim())
	}
	return nil
}

// KNNUtility returns the utility function that KNNShapley's closed form
// scores: mean over validation points of the fraction of correct votes
// among the K nearest neighbors within the subset. Exposed so tests and
// benchmarks can cross-check the closed form against generic estimators.
// Ranking uses squared distances with index tie-breaks — the same total
// order as the closed form and the NeighborIndex.
func KNNUtility(k int, train, valid *ml.Dataset) Utility {
	return func(subset []int) (float64, error) {
		if len(subset) == 0 {
			return 0, nil
		}
		total := 0.0
		type distIdx struct {
			d float64
			i int
		}
		for v := 0; v < valid.Len(); v++ {
			x, y := valid.Row(v), valid.Y[v]
			di := make([]distIdx, len(subset))
			for o, i := range subset {
				di[o] = distIdx{ml.SquaredDistance(train.Row(i), x), i}
			}
			sort.SliceStable(di, func(a, b int) bool {
				if di[a].d != di[b].d {
					return di[a].d < di[b].d
				}
				return di[a].i < di[b].i
			})
			m := k
			if m > len(di) {
				m = len(di)
			}
			correct := 0
			for j := 0; j < m; j++ {
				if train.Y[di[j].i] == y {
					correct++
				}
			}
			total += float64(correct) / float64(k)
		}
		return total / float64(valid.Len()), nil
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
