package exp

import (
	"fmt"
	"math"
	"time"

	"nde/internal/datagen"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/par"
)

// E13Result carries the unlearning-vs-retraining measurements.
type E13Result struct {
	Table *Table
	// SpeedupAt[i] is retrain-time / unlearn-time at DeleteSizes[i].
	DeleteSizes []int
	Speedup     []float64
	// Agreements[i] is the prediction agreement between the unlearned and
	// the retrained model.
	Agreements []float64
}

// e13Reps is how many times E13 times each unlearn and retrain; it reports
// the fastest of each.
const e13Reps = 3

// E13Unlearning measures the §2.4 connection between data debugging and
// low-latency machine unlearning: influence-style unlearning of a logistic
// model must track exact retraining in predictions while being much
// faster, across deletion-batch sizes.
func E13Unlearning(n int, seed int64) (*E13Result, error) {
	dirty, valid, _, _, err := dirtyLetters(n, 0.1, seed)
	if err != nil {
		return nil, err
	}
	_ = valid
	test := dirty // prediction agreement is measured on the training points themselves
	sizes := []int{1, 5, 20}
	t := &Table{
		ID:      "E13",
		Title:   "§2.4 — low-latency unlearning vs. exact retraining (logistic regression)",
		Columns: []string{"deleted rows", "unlearn time", "retrain time", "speedup", "prediction agreement"},
		Notes:   "the influence-style Newton update forgets data orders of magnitude faster while matching retraining",
	}
	res := &E13Result{Table: t, DeleteSizes: sizes}
	for _, k := range sizes {
		rows := make([]int, k)
		rm := make(map[int]bool, k)
		for i := range rows {
			rows[i] = i * 3 // deterministic spread
			rm[rows[i]] = true
		}
		rest, _ := dirty.Without(rm)
		// Both fits are deterministic, so every repetition builds the same
		// models; the best of e13Reps timings keeps one descheduling of a
		// sub-millisecond unlearn from standing in for its cost.
		var m, fresh *ml.UnlearnableLogReg
		unlearnTime, retrainTime := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for rep := 0; rep < e13Reps; rep++ {
			m = ml.NewUnlearnableLogReg()
			if err := m.Fit(dirty); err != nil {
				return nil, err
			}
			start := time.Now()
			if err := m.Unlearn(rows); err != nil {
				return nil, err
			}
			unlearnTime = min(unlearnTime, time.Since(start))

			fresh = ml.NewUnlearnableLogReg()
			start = time.Now()
			if err := fresh.Fit(rest); err != nil {
				return nil, err
			}
			retrainTime = min(retrainTime, time.Since(start))
		}

		agree := 0
		for i := 0; i < test.Len(); i++ {
			if m.Predict(test.Row(i)) == fresh.Predict(test.Row(i)) {
				agree++
			}
		}
		agreement := float64(agree) / float64(test.Len())
		denom := unlearnTime.Seconds()
		if denom <= 0 {
			denom = 1e-9
		}
		speedup := retrainTime.Seconds() / denom
		res.Speedup = append(res.Speedup, speedup)
		res.Agreements = append(res.Agreements, agreement)
		t.AddRow(fmt.Sprintf("%d", k),
			unlearnTime.Round(time.Microsecond).String(),
			retrainTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0fx", speedup),
			f3(agreement))
	}
	return res, nil
}

// E14Result carries the amortization quality/cost trade-off.
type E14Result struct {
	Table *Table
	// Budgets[i] oracle rows produced PrecisionAt[i] detection precision.
	Budgets     []int
	PrecisionAt []float64
	// FullPrecision is the detection precision of the full exact scores.
	FullPrecision float64
}

// E14Amortization measures model-based importance estimation (§2.1's
// "model-based estimation" / stochastic amortization): exact kNN-Shapley
// scores are computed for only a budget of rows, a cheap regression
// amortizes them to all rows, and detection precision is compared with the
// full computation across budgets.
func E14Amortization(n int, seed int64) (*E14Result, error) {
	dirty, valid, _, corrupted, err := dirtyLetters(n, 0.15, seed)
	if err != nil {
		return nil, err
	}
	k := len(corrupted)
	// pooled, index-backed path; bit-identical to sequential KNNShapley
	full, err := importance.KNNShapleyParallel(5, dirty, valid, 0)
	if err != nil {
		return nil, err
	}
	fullPrec := full.PrecisionAtK(corrupted, k)

	budgets := []int{dirty.Len() / 8, dirty.Len() / 4, dirty.Len() / 2}
	t := &Table{
		ID:      "E14",
		Title:   fmt.Sprintf("§2.1 — amortized importance estimation (full exact precision@%d = %.3f)", k, fullPrec),
		Columns: []string{"oracle budget", "amortized precision@k", "fraction of full cost"},
		Notes:   "a cheap regression over noisy per-row oracle scores approaches full-computation quality",
	}
	res := &E14Result{Table: t, Budgets: budgets, FullPrecision: fullPrec}
	for _, budget := range budgets {
		targets := make([]float64, budget)
		rows := make([]int, budget)
		// deterministic stratified budget: every (n/budget)-th row
		stride := dirty.Len() / budget
		for o := range rows {
			rows[o] = (o * stride) % dirty.Len()
			targets[o] = full[rows[o]]
		}
		est := importance.NewAmortizedEstimator()
		if err := est.Fit(dirty, rows, targets); err != nil {
			return nil, err
		}
		scores, err := est.Predict()
		if err != nil {
			return nil, err
		}
		prec := scores.PrecisionAtK(corrupted, k)
		res.PrecisionAt = append(res.PrecisionAt, prec)
		t.AddRow(fmt.Sprintf("%d/%d", budget, dirty.Len()), f3(prec),
			fmt.Sprintf("%.0f%%", 100*float64(budget)/float64(dirty.Len())))
	}
	return res, nil
}

// E15Result carries the RAG corpus-debugging measurements.
type E15Result struct {
	Table     *Table
	AccBefore float64
	AccAfter  float64
}

// E15RAGImportance demonstrates §2.1's retrieval-augmented-generation data
// importance: corpus documents get kNN-Shapley values against a benchmark
// of (query, answer) pairs, and pruning negative-importance (polluted)
// documents improves benchmark accuracy. Pruning effects on a single small
// corpus are noisy, so the experiment reports the mean over five generated
// corpora — the protocol of the cited study.
func E15RAGImportance(seed int64) (*E15Result, error) {
	const trials = 5
	// the corpora are independent: generate and score them concurrently on
	// the shared pool, then reduce serially in trial order so the sums are
	// bit-identical to the old serial loop for any worker count
	befores := make([]float64, trials)
	afters := make([]float64, trials)
	droppeds := make([]int, trials)
	if _, err := par.ForErr("exp.e15_trials", 0, trials, func(_, trial int) error {
		var err error
		befores[trial], afters[trial], droppeds[trial], err = ragTrial(seed + int64(trial))
		return err
	}); err != nil {
		return nil, err
	}
	var sumBefore, sumAfter float64
	var totalDropped int
	for trial := 0; trial < trials; trial++ {
		sumBefore += befores[trial] / trials
		sumAfter += afters[trial] / trials
		totalDropped += droppeds[trial]
	}
	t := &Table{
		ID:      "E15",
		Title:   "§2.1 — data importance for retrieval-augmented inference (mean of 5 corpora)",
		Columns: []string{"corpus state", "benchmark accuracy"},
		Notes:   "pruning negative-importance (polluted) corpus documents improves answers on average",
	}
	t.AddRow("original corpora (with polluted docs)", f3(sumBefore))
	t.AddRow(fmt.Sprintf("after pruning negative-importance docs (%d total)", totalDropped), f3(sumAfter))
	return &E15Result{Table: t, AccBefore: sumBefore, AccAfter: sumAfter}, nil
}

func ragTrial(seed int64) (before, after float64, dropped int, err error) {
	h := datagen.Hiring(datagen.Config{N: 120, Seed: seed})
	letters, err := h.Letters.MustColumn("letter_text").Strings()
	if err != nil {
		return 0, 0, 0, err
	}
	sentiments, err := h.Letters.MustColumn("sentiment").Strings()
	if err != nil {
		return 0, 0, 0, err
	}
	labels := make([]int, len(sentiments))
	for i, s := range sentiments {
		if s == "positive" {
			labels[i] = 1
		}
	}
	// pollute 10% of the corpus portion with flipped labels; the benchmark
	// keeps clean ground-truth answers
	corpusLabels := append([]int(nil), labels[:80]...)
	for i := 0; i < len(corpusLabels); i += 10 {
		corpusLabels[i] = 1 - corpusLabels[i]
	}
	corpus, err := importance.NewRAGCorpus(letters[:80], corpusLabels)
	if err != nil {
		return 0, 0, 0, err
	}
	queries := letters[80:]
	answers := labels[80:]

	if before, err = corpus.BenchmarkAccuracy(queries, answers, 5); err != nil {
		return 0, 0, 0, err
	}
	scores, err := corpus.DocumentImportance(queries, answers, 5)
	if err != nil {
		return 0, 0, 0, err
	}
	pruned, removed, err := corpus.PruneNegative(scores)
	if err != nil {
		return 0, 0, 0, err
	}
	if after, err = pruned.BenchmarkAccuracy(queries, answers, 5); err != nil {
		return 0, 0, 0, err
	}
	return before, after, len(removed), nil
}
