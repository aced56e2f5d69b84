package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"nde/internal/cleaning"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/pipeline"
	"nde/internal/prov"
	"nde/internal/serve"
)

// Sizes of the three workloads (README.md explains the choice).
const (
	bigTrain   = 20000
	bigValid   = 64
	smallTrain = 2000
	smallValid = 200
	smallTest  = 500
	// warmDatasets fills serve's dataset registry (default capacity 32).
	warmDatasets = 32
	// warmIndexes fills importance's neighbor-index LRU (capacity 4).
	warmIndexes = 4
	// recentRepeats bounds how far back a debug-20k repeat reaches, well
	// inside serve's 32-entry score and what-if stores, so every repeat
	// is a store hit.
	recentRepeats = 6
	// whatifOracleSample is how many what-if replies per run are checked
	// against the ForceRebuild oracle (it rebuilds a 20k-row index per
	// variant, so checking all of them would outlast the run).
	whatifOracleSample = 12
)

// newModel is the classifier factory serve uses (the facade's 5-NN).
func newModel() ml.Classifier { return ml.NewKNN(5) }

// post sends a set-up request and decodes its 2xx reply into out.
func post(h http.Handler, path string, body []byte, out any) error {
	status, reply, _ := call(h, &replyWriter{}, &request{path: path, body: body})
	if status/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	return nil
}

// encode renders v exactly as serve writes a response body.
func encode(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err) // response types always encode
	}
	return b.Bytes()
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always encode
	}
	return b
}

func register(h http.Handler, g *genData) (string, error) {
	var r serve.RegisterResponse
	if err := post(h, "/v1/datasets", registerBody(nil, g), &r); err != nil {
		return "", err
	}
	return r.ID, nil
}

func importanceBody(id string, k int) []byte {
	return mustMarshal(serve.ImportanceRequest{Dataset: id, K: k})
}

// importanceOracle checks each importance reply against the serial
// importance.KNNShapley on the same data, through the encoding serve uses:
// the JSON of a float64 round-trips, so equal bytes mean equal Float64bits.
// It starts from an empty index cache, so the oracle's geometry is its own.
func importanceOracle(rqs []*request, data func(rq *request) *splits) {
	importance.ResetNeighborIndexCache()
	parallel(len(rqs), func(i int) {
		rq := rqs[i]
		d := data(rq)
		sc, err := importance.KNNShapley(rq.k, d.train, d.valid)
		if err != nil {
			rq.bad = "oracle: " + err.Error()
			return
		}
		want := encode(serve.ImportanceResponse{Dataset: rq.dataset, K: rq.k, Scores: sc})
		if hashBytes(want) != rq.hash {
			rq.bad = fmt.Sprintf("scores differ from importance.KNNShapley (k=%d)", rq.k)
		}
	})
}

// ok2xx keeps the fresh requests of one kind that got a 2xx reply.
func ok2xx(done []*request, kind string) []*request {
	var out []*request
	for _, rq := range done {
		if rq.kind == kind && !rq.cached && rq.status/100 == 2 {
			out = append(out, rq)
		}
	}
	return out
}

// ---- cold-20k -----------------------------------------------------------

// coldWL registers a never-seen 20k-row dataset per iteration and scores it:
// every cache misses, so JSON decode, the distance kernel and the argsort
// do the work.
type coldWL struct {
	seed    int64
	ids     map[string]bool // every id registered so far
	nextDS  int             // number of the next dataset
	pending *request        // the register whose dataset is scored next
	gen     genData         // reused generation buffers
	buf     []byte          // reused request body
	replayD *splits         // traced run: the last replayed registration
}

func newCold(seed int64) scenario { return &coldWL{seed: seed, ids: map[string]bool{}} }

func (s *coldWL) clients() int { return 1 }

func (s *coldWL) spec(j int) dataSpec {
	return dataSpec{Seed: mix(s.seed, uint64(j)), Train: bigTrain, Valid: bigValid}
}

// setup fills the dataset registry and the index LRU, so heap_live_mb
// does not grow with run length.
func (s *coldWL) setup(h http.Handler) error {
	ids := make([]string, warmDatasets)
	errs := make([]error, warmDatasets)
	parallel(warmDatasets, func(j int) {
		ids[j], errs[j] = register(h, generate(s.spec(j)))
	})
	for j, err := range errs {
		if err != nil {
			return err
		}
		s.ids[ids[j]] = true
	}
	for _, id := range ids[warmDatasets-warmIndexes:] {
		if err := post(h, "/v1/importance", importanceBody(id, 5), nil); err != nil {
			return err
		}
	}
	s.nextDS = 1 << 20 // timed datasets never collide with warm-up ones
	return nil
}

func (s *coldWL) next(int) *request {
	if p := s.pending; p != nil {
		s.pending = nil
		return &request{kind: "importance", path: "/v1/importance", body: importanceBody(p.dataset, 5),
			dataset: p.dataset, spec: p.spec, k: 5}
	}
	spec := s.spec(s.nextDS)
	s.nextDS++
	generateInto(&s.gen, spec)
	s.buf = registerBody(s.buf[:0], &s.gen)
	return &request{kind: "register", path: "/v1/datasets", body: s.buf, spec: spec}
}

func (s *coldWL) observe(rq *request, reply []byte) {
	if rq.kind != "register" {
		return
	}
	var r serve.RegisterResponse
	switch err := json.Unmarshal(reply, &r); {
	case err != nil:
		rq.bad = "register reply: " + err.Error()
	case r.TrainRows != bigTrain || r.ValidRows != bigValid || r.Dim != dim:
		rq.bad = fmt.Sprintf("register reply shape %d/%d×%d", r.TrainRows, r.ValidRows, r.Dim)
	case s.ids[r.ID]:
		rq.bad = "registration returned a known dataset id " + r.ID
	default:
		s.ids[r.ID] = true
		rq.dataset = r.ID
		s.pending = rq
	}
}

func (s *coldWL) verify(done []*request) {
	rqs := ok2xx(done, "importance")
	importanceOracle(rqs, func(rq *request) *splits { return generate(rq.spec).splits() })
	fmt.Printf("# oracle: %d importance replies checked against importance.KNNShapley on regenerated data\n", len(rqs))
}

// ---- debug-20k ----------------------------------------------------------

// debugWL is the analyst's flag → what-if → rescore loop on one warm 20k
// dataset with two clients.
type debugWL struct {
	seed int64
	id   string
	data *splits
	ft   *pipeline.Featurized
	cl   [2]debugClient
}

type debugClient struct {
	rng    *rand.Rand
	n      int        // requests scheduled
	fresh  int        // fresh (non-repeat) requests scheduled
	imps   int        // importance requests scheduled
	recent []*request // the last recentRepeats fresh requests
}

func newDebug(seed int64) scenario {
	s := &debugWL{seed: seed}
	for c := range s.cl {
		s.cl[c].rng = rand.New(rand.NewSource(mix(seed, uint64(1<<21+c))))
	}
	return s
}

func (s *debugWL) clients() int { return len(s.cl) }

func (s *debugWL) setup(h http.Handler) error {
	g := generate(dataSpec{Seed: mix(s.seed, 1<<20), Train: bigTrain, Valid: bigValid})
	id, err := register(h, g)
	if err != nil {
		return err
	}
	s.id, s.data = id, g.splits()
	s.ft = featurized(s.data.train)
	// warm the neighbor index (kernel + argsort) and the featurized table
	if err := post(h, "/v1/importance", importanceBody(id, 5), nil); err != nil {
		return err
	}
	warm := randomVariants(rand.New(rand.NewSource(mix(s.seed, 1<<22))), "warm")
	return post(h, "/v1/whatif", mustMarshal(serve.WhatIfRequest{Dataset: id, Variants: warm}), nil)
}

// featurized is serve's identity-provenance view of a train split.
func featurized(train *ml.Dataset) *pipeline.Featurized {
	p := make([]prov.Polynomial, train.Len())
	for i := range p {
		p[i] = prov.Var(prov.TupleID{Table: "train", Row: i})
	}
	return &pipeline.Featurized{Data: train, Prov: p}
}

// randomVariants draws a what-if batch: 8 variants, each removing 1–50
// distinct random train rows.
func randomVariants(rng *rand.Rand, prefix string) []serve.WhatIfVariant {
	vs := make([]serve.WhatIfVariant, 8)
	for v := range vs {
		m := 1 + rng.Intn(50)
		rows := make([]int, 0, m)
	draw:
		for len(rows) < m {
			r := rng.Intn(bigTrain)
			for _, x := range rows {
				if x == r {
					continue draw
				}
			}
			rows = append(rows, r)
		}
		vs[v] = serve.WhatIfVariant{Name: fmt.Sprintf("%s%d", prefix, v), Remove: rows}
	}
	return vs
}

func (s *debugWL) next(c int) *request {
	cl := &s.cl[c]
	i := cl.n
	cl.n++
	if i%4 == 3 && len(cl.recent) > 0 {
		o := cl.recent[cl.rng.Intn(len(cl.recent))]
		return &request{kind: o.kind, cached: true, path: o.path, body: o.body, orig: o}
	}
	f := cl.fresh
	cl.fresh++
	if (f+c)%2 == 0 {
		k := 6 + 2*cl.imps + c // never used before by either client
		cl.imps++
		return &request{kind: "importance", path: "/v1/importance", body: importanceBody(s.id, k),
			dataset: s.id, k: k}
	}
	vs := randomVariants(cl.rng, "v")
	return &request{kind: "whatif", path: "/v1/whatif", dataset: s.id, variants: vs,
		body: mustMarshal(serve.WhatIfRequest{Dataset: s.id, Variants: vs})}
}

func (s *debugWL) observe(rq *request, reply []byte) {
	cl := &s.cl[rq.client]
	if rq.cached {
		if rq.hash != rq.orig.hash {
			rq.bad = "cached repeat differs from the first reply"
		}
		return
	}
	cl.recent = append(cl.recent, rq)
	if len(cl.recent) > recentRepeats {
		cl.recent = cl.recent[1:]
	}
}

func (s *debugWL) verify(done []*request) {
	imps := ok2xx(done, "importance")
	importanceOracle(imps, func(*request) *splits { return s.data })

	wis := ok2xx(done, "whatif")
	step := (len(wis) + whatifOracleSample - 1) / whatifOracleSample
	checked := 0
	for i := 0; i < len(wis); i += max(step, 1) {
		rq := wis[i]
		res, err := pipeline.WhatIfRemovalsConfig(s.ft, removalVariants(rq.variants), newModel, s.data.valid,
			pipeline.WhatIfConfig{ForceRebuild: true})
		checked++
		if err != nil {
			rq.bad = "oracle: " + err.Error()
			continue
		}
		if hashBytes(encode(whatifResponse(rq.dataset, res))) != rq.hash {
			rq.bad = "what-if metrics differ from the ForceRebuild oracle"
		}
	}
	repeats := 0
	for _, rq := range done {
		if rq.cached {
			repeats++
		}
	}
	fmt.Printf("# oracle: %d importance replies vs importance.KNNShapley, %d of %d what-if replies vs ForceRebuild, %d cached repeats vs their first reply\n",
		len(imps), checked, len(wis), repeats)
}

// removalVariants is serve's translation of wire variants, with the hidden
// baseline (remove nothing) first.
func removalVariants(vs []serve.WhatIfVariant) []pipeline.RemovalVariant {
	out := []pipeline.RemovalVariant{{Name: "baseline"}}
	for _, v := range vs {
		ids := make([]prov.TupleID, len(v.Remove))
		for j, r := range v.Remove {
			ids[j] = prov.TupleID{Table: "train", Row: r}
		}
		out = append(out, pipeline.RemovalVariant{Name: v.Name, Remove: ids})
	}
	return out
}

// whatifResponse is serve's response for what-if results (baseline first).
func whatifResponse(id string, results []pipeline.WhatIfResult) serve.WhatIfResponse {
	resp := serve.WhatIfResponse{Dataset: id, Baseline: results[0].Metric}
	for _, r := range results[1:] {
		out := serve.WhatIfResultJSON{Name: r.Name, Surviving: r.Surviving}
		if !math.IsNaN(r.Metric) {
			m := r.Metric
			out.Metric = &m
		}
		resp.Results = append(resp.Results, out)
	}
	return resp
}

// ---- cleaning-2k --------------------------------------------------------

// cleaningStrategies are the strategies every cleaning-2k request compares,
// built as serve builds them from their wire names.
var cleaningStrategies = []string{"random", "knn-shapley"}

const (
	cleaningBatch  = 20
	cleaningBudget = 200
)

func strategies() []cleaning.Strategy {
	return []cleaning.Strategy{&cleaning.RandomStrategy{Seed: 1}, &cleaning.KNNShapleyStrategy{}}
}

// cleaningWL runs the whole cleaning comparison on one small dataset per
// request: many small kernels, top-k selections and clones.
type cleaningWL struct {
	seed int64
	id   string
	data *splits
	body []byte
}

func newCleaning(seed int64) scenario { return &cleaningWL{seed: seed} }

func (s *cleaningWL) clients() int { return 1 }

func (s *cleaningWL) setup(h http.Handler) error {
	g := generate(dataSpec{Seed: mix(s.seed, 1<<23), Train: smallTrain, Valid: smallValid, Test: smallTest, Flip: 0.2})
	id, err := register(h, g)
	if err != nil {
		return err
	}
	s.id, s.data = id, g.splits()
	s.body = mustMarshal(serve.CleaningRequest{Dataset: id, Strategies: cleaningStrategies,
		Batch: cleaningBatch, Budget: cleaningBudget})
	return post(h, "/v1/cleaning", s.body, nil) // warms the shared neighbor index
}

func (s *cleaningWL) next(int) *request {
	return &request{kind: "cleaning", path: "/v1/cleaning", body: s.body, dataset: s.id}
}

func (s *cleaningWL) observe(*request, []byte) {}

func (s *cleaningWL) verify(done []*request) {
	importance.ResetNeighborIndexCache()
	d := s.data
	res, err := cleaning.CompareStrategiesParallel(d.train, d.valid, d.test, &cleaning.LabelOracle{Truth: d.truth},
		strategies(), newModel, cleaningBatch, cleaningBudget, 1)
	var want uint64
	if err == nil {
		want = hashBytes(encode(cleaningResponse(s.id, res)))
	}
	rqs := ok2xx(done, "cleaning")
	for _, rq := range rqs {
		switch {
		case err != nil:
			rq.bad = "oracle: " + err.Error()
		case rq.hash != want:
			rq.bad = "cleaning curves differ from CompareStrategiesParallel(workers=1)"
		}
	}
	fmt.Printf("# oracle: %d cleaning replies vs cleaning.CompareStrategiesParallel(workers=1)\n", len(rqs))
}

// cleaningResponse is serve's response for cleaning results.
func cleaningResponse(id string, results []*cleaning.Result) serve.CleaningResponse {
	resp := serve.CleaningResponse{Dataset: id}
	for _, r := range results {
		out := serve.CleaningStrategyResult{Strategy: r.Strategy, AUC: cleaning.AreaUnderCurve(r.Curve)}
		for _, p := range r.Curve {
			out.Curve = append(out.Curve, serve.CurvePointJSON{Cleaned: p.Cleaned, Accuracy: p.Accuracy})
		}
		resp.Results = append(resp.Results, out)
	}
	return resp
}
