package nde

import (
	"time"

	"nde/internal/ml"
)

// Neighbor-search facade: the search types NearestLetters takes. The exact
// backend is the default and the determinism oracle; SearchIVF/SearchAuto
// trade exactness for sub-linear top-k queries via the internal IVF index
// (float32 kernels, k-means partitions). kNN-Shapley always uses the exact
// full ranking, so it takes no search configuration.

// Re-exported search types, so callers can pick a mode without importing
// internal packages.
type (
	// SearchMode selects how neighbor top-k queries are answered.
	SearchMode = ml.SearchMode
	// NeighborSearchConfig tunes the neighbor-search backend (mode,
	// partition count, probes, recall floor). The zero value is exact.
	NeighborSearchConfig = ml.SearchConfig
)

// The three search modes; see ml.SearchMode.
const (
	// SearchExact always computes the full float64 distance matrix.
	SearchExact = ml.SearchExact
	// SearchIVF always serves top-k from the approximate IVF index.
	SearchIVF = ml.SearchIVF
	// SearchAuto stays exact for small training sets and switches to IVF
	// only after certifying the configured recall floor on a sample.
	SearchAuto = ml.SearchAuto
)

// NearestLetters featurizes the letters splits (fitting the encoder on
// train) and returns, for each query letter, the indices of its k nearest
// training letters under the given search backend, nearest first.
// With SearchIVF/SearchAuto the per-query answers are approximate but the
// per-query exactness fallback still applies: a query whose probed
// partitions hold fewer than k rows is answered exactly.
func NearestLetters(train, queries *Frame, k int, cfg NeighborSearchConfig) (_ [][]int, err error) {
	defer recordOp("NearestLetters", time.Now(), frameRows(train), 0, &err)
	if err := checkFrame("train letters", train, "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	if err := checkFrame("query letters", queries, "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	ct := LetterFeaturizer()
	dTrain, err := featurizeWith(ct, train, true)
	if err != nil {
		return nil, err
	}
	dQueries, err := featurizeWith(ct, queries, false)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 5
	}
	if err := checkK("NearestLetters", k, dTrain.Len()); err != nil {
		return nil, err
	}
	ix, err := ml.NewNeighborIndexSearch(dTrain, dQueries, 0, cfg)
	if err != nil {
		return nil, err
	}
	out := make([][]int, dQueries.Len())
	for q := range out {
		out[q] = ix.TopK(q, k)
	}
	return out, nil
}
