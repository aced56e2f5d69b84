package importance

import (
	"fmt"
	"sort"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
)

// KNNShapleyDelta recomputes kNN-Shapley after removing training rows,
// reusing the shared neighbor index for the ORIGINAL training set instead
// of rebuilding from scratch: the removed-set index is derived via
// ml.NeighborIndex.RemoveRows (tombstone + O(n) merge walk over cached
// distances — no fresh kernel, no argsort) and registered in the cache
// under the reduced train's own fingerprint so follow-up calls, and
// further removals chained on top, hit it directly.
//
// It returns the reduced scores (one per surviving row, in surviving
// order), the surviving original row ids, and the derived index.
//
// Determinism: the result is Float64bits-identical to
// KNNShapley(k, train.Subset(keep), valid) — the full-rebuild oracle —
// for every worker count. That identity constrains the implementation:
// the closed-form recurrence is re-evaluated in full per validation point
// rather than patched from the highest changed neighbor rank downward,
// because the algebraic prefix-offset shortcut (ranks below the first
// removed neighbor change by a constant) reassociates float additions and
// drifts from the oracle by ulps. The recurrence is O(n) with tiny
// constants; the delta win is skipping the O(n·d) distance kernel and the
// per-query radix argsort, which dominate the rebuild (DESIGN §11).
//
// Labels are read from the caller's train argument, never from a cached
// index: cached geometry may be shared across label revisions.
func KNNShapleyDelta(k int, train, valid *ml.Dataset, remove []int, workers int) (Scores, []int, *ml.NeighborIndex, error) {
	if err := validateKNNShapley(k, train, valid); err != nil {
		return nil, nil, nil, err
	}
	n := train.Len()
	for _, r := range remove {
		if r < 0 || r >= n {
			return nil, nil, nil, fmt.Errorf("importance: delta removal row %d outside [0,%d): %w", r, n, nderr.ErrDegenerateInput)
		}
	}
	uniq := append([]int(nil), remove...)
	sort.Ints(uniq)
	uniq = dedupSortedInts(uniq)
	if len(uniq) == n {
		return nil, nil, nil, fmt.Errorf("importance: delta removal would empty the training set: %w", nderr.ErrEmptyInput)
	}

	sp := obs.StartSpan("importance.knnshapley_delta")
	sp.SetInt("k", int64(k)).SetInt("train", int64(n)).
		SetInt("valid", int64(valid.Len())).SetInt("removed", int64(len(uniq)))
	defer sp.End()

	parent, err := ml.SharedNeighborIndex(train, valid, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	keep := make([]int, 0, n-len(uniq))
	next := 0
	for i := 0; i < n; i++ {
		if next < len(uniq) && uniq[next] == i {
			next++
			continue
		}
		keep = append(keep, i)
	}
	child := parent
	if len(uniq) > 0 {
		child, err = parent.RemoveRows(uniq)
		if err != nil {
			return nil, nil, nil, err
		}
		ml.PublishNeighborIndex(child)
	}
	// survivor labels from the CALLER's dataset (stale-label cache contract)
	reducedY := make([]int, len(keep))
	for o, i := range keep {
		reducedY[o] = train.Y[i]
	}

	scores, err := knnShapleyOverIndex(k, child, reducedY, valid, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	return scores, keep, child, nil
}

// dedupSortedInts removes adjacent duplicates in place.
func dedupSortedInts(a []int) []int {
	out := a[:0]
	for i, v := range a {
		if i == 0 || a[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}
