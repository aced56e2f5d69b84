package nde

import (
	"math"
	"testing"

	"nde/internal/importance"
	"nde/internal/ml"
)

// NearestLetters answers every query with k neighbor ids and rejects
// degenerate inputs through the facade checks.
func TestNearestLettersModes(t *testing.T) {
	s := LoadRecommendationLetters(300, 7)
	exact, err := NearestLetters(s.Train, s.Valid, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != s.Valid.NumRows() {
		t.Fatalf("%d answers for %d queries", len(exact), s.Valid.NumRows())
	}
	for q, nn := range exact {
		if len(nn) != 5 {
			t.Fatalf("query %d: %d neighbors, want 5", q, len(nn))
		}
	}
	// degenerate inputs error through the facade checks
	if _, err := NearestLetters(nil, s.Valid, 5); err == nil {
		t.Error("nil train frame did not error")
	}
	if _, err := NearestLetters(s.Train, s.Valid, 10_000); err == nil {
		t.Error("oversized k did not error")
	}
}

// The facade's kNN-Shapley scores must equal the closed-form recurrence
// over the Order of an explicitly built exact index, bit for bit, also
// after that index has served TopK for every query; so must a second
// facade call.
func TestKNNShapleyInvariantUnderSearchMode(t *testing.T) {
	importance.ResetNeighborIndexCache()
	defer importance.ResetNeighborIndexCache()

	const k = 5
	s := LoadRecommendationLetters(260, 9)
	base, err := KNNShapleyValues(s.Train, s.Valid, k)
	if err != nil {
		t.Fatal(err)
	}
	ct := LetterFeaturizer()
	train, err := featurizeWith(ct, s.Train, true)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := featurizeWith(ct, s.Valid, false)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ml.NewNeighborIndex(train, valid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < valid.Len(); q++ {
		ix.TopK(q, k)
	}
	got := closedFormKNNShapley(k, ix, train.Y, valid.Y)
	for i := range base {
		if math.Float64bits(base[i]) != math.Float64bits(got[i]) {
			t.Fatalf("score %d differs from the closed form: %v vs %v", i, base[i], got[i])
		}
	}
	again, err := KNNShapleyValues(s.Train, s.Valid, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if math.Float64bits(base[i]) != math.Float64bits(again[i]) {
			t.Fatalf("score %d changed on a repeat call: %v vs %v", i, base[i], again[i])
		}
	}
}

// closedFormKNNShapley is the kNN-Shapley recurrence over ix's full
// neighbor ordering, summed per validation point in order and scaled by
// 1/q: the summation order the importance package keeps for every entry
// point.
func closedFormKNNShapley(k int, ix *ml.NeighborIndex, trainY, validY []int) []float64 {
	n := len(trainY)
	scores := make([]float64, n)
	s := make([]float64, n)
	for v := range validY {
		order := ix.Order(v)
		match := func(pos int) float64 {
			if trainY[order[pos]] == validY[v] {
				return 1
			}
			return 0
		}
		s[n-1] = match(n-1) / float64(n)
		for j := n - 2; j >= 0; j-- {
			rank := j + 1
			s[j] = s[j+1] + (match(j)-match(j+1))/float64(k)*math.Min(float64(k), float64(rank))/float64(rank)
		}
		for j := 0; j < n; j++ {
			scores[order[j]] += s[j]
		}
	}
	inv := 1 / float64(len(validY))
	for i := range scores {
		scores[i] *= inv
	}
	return scores
}
