package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nde/internal/cleaning"
	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/pipeline"
	"nde/internal/serve"
)

// The traced run replays each request through the public functions of
// the layers it crosses, one call per layer, and times each call at its
// own boundary with the benchmark's own spans (the program's built-in
// tracer stays off). Where an outer call hides an inner layer, the inner
// calls are timed on a replay of the same inputs and the outer layer's
// self time is the difference.

// lowCoverage flags an endpoint whose layers account for less than this
// share of its handler time.
const lowCoverage = 0.8

// endpoints in report order; "cached" is a repeat answered from a store.
var endpoints = []string{"register", "importance", "whatif", "cleaning", "cached"}

// layerMetrics are the per-layer metrics in report order. A "_ms" metric
// is the layer's self time per request; the others are per-request
// values. Each is the median over the requests of the endpoint on which
// the layer does the most work (the table names it), and 0 where the
// workload never reaches the layer.
var layerMetrics = []struct{ name, unit string }{
	{"serve.decode_ms", "ms"}, {"serve.decode_alloc_mb", "MB"}, {"serve.body_in_kb", "KB"},
	{"ml.dataset_build_ms", "ms"},
	{"linalg.fingerprint_ms", "ms"},
	{"linalg.kernel_ms", "ms"}, {"linalg.kernel_alloc_mb", "MB"}, {"linalg.kernel_gflop", "GFLOP"},
	{"ml.argsort_ms", "ms"}, {"ml.argsort_alloc_mb", "MB"}, {"ml.argsort_elems", "count"},
	{"ml.topk_ms", "ms"},
	{"ml.delta_ms", "ms"}, {"ml.delta_alloc_mb", "MB"},
	{"importance.recurrence_ms", "ms"}, {"importance.recurrence_alloc_mb", "MB"}, {"importance.recurrence_steps", "count"},
	{"pipeline.whatif_self_ms", "ms"}, {"pipeline.variants", "count"},
	{"cleaning.rank_ms", "ms"}, {"cleaning.oracle_ms", "ms"}, {"cleaning.evaluate_ms", "ms"}, {"cleaning.rounds", "count"},
	{"serve.encode_ms", "ms"}, {"serve.body_out_kb", "KB"},
}

// span is one timed interval of the traced run.
type span struct {
	name       string
	req        int // request number; spans of one request share it
	id, parent int // parent 0: a request's root span
	start, end time.Time
}

// layerRec is what one traced request spent in each layer.
type layerRec struct {
	endpoint  string
	handlerMs float64
	ms        map[string]float64 // layer → self time
	val       map[string]float64 // per-request counts, sizes and allocations
}

type tracer struct {
	t0     time.Time
	spans  []span
	req    int
	replay int // id of the current request's replay span
	cur    *layerRec
	recs   []*layerRec
	from   map[string]string // per-layer metric → the endpoint it was taken on
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, req: t.req, id: len(t.spans) + 1, parent: parent, start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.end = time.Now()
	return s.end.Sub(s.start)
}

// layer times fn as one call into the named layer under the replay span
// and adds the time (and with alloc, the bytes allocated, measured outside
// the span) to the request's record. It returns the time in ms.
func (t *tracer) layer(name string, alloc bool, fn func()) float64 {
	var m0, m1 runtime.MemStats
	if alloc {
		runtime.ReadMemStats(&m0)
	}
	id := t.begin(name, t.replay)
	fn()
	d := ms(t.end(id))
	if alloc {
		runtime.ReadMemStats(&m1)
		t.add(name+"_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	t.cur.ms[name] += d
	return d
}

func (t *tracer) add(name string, v float64) { t.cur.val[name] += v }

// decode replays serve's request decoding: unknown fields rejected, no
// trailing data.
func (t *tracer) decode(body []byte, v any) error {
	var err error
	t.layer("serve.decode", true, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(v); err == nil {
			var trailing any
			if dec.Decode(&trailing) != io.EOF {
				err = fmt.Errorf("trailing data")
			}
		}
	})
	t.add("serve.body_in_kb", float64(len(body))/1024)
	return err
}

// encode replays serve's response encoding and checks the bytes against
// the handler's reply.
func (t *tracer) encode(v any, reply []byte) error {
	var b bytes.Buffer
	var err error
	t.layer("serve.encode", false, func() { err = json.NewEncoder(&b).Encode(v) })
	t.add("serve.body_out_kb", float64(b.Len())/1024)
	if err != nil {
		return err
	}
	if !bytes.Equal(b.Bytes(), reply) {
		return fmt.Errorf("replayed layers disagree with the handler's reply")
	}
	return nil
}

// fingerprint replays the content fingerprints the index cache keys on.
func (t *tracer) fingerprint(mats ...*linalg.Matrix) float64 {
	return t.layer("linalg.fingerprint", false, func() {
		for _, m := range mats {
			m.Fingerprint()
		}
	})
}

// kernel replays a root NeighborIndex build and its distance matrix.
func (t *tracer) kernel(d *splits) (*ml.NeighborIndex, error) {
	var ix *ml.NeighborIndex
	var err error
	t.layer("linalg.kernel", true, func() {
		if ix, err = ml.NewNeighborIndex(d.train, d.valid, 0); err == nil {
			ix.D2()
		}
	})
	t.add("linalg.kernel_gflop", 2*float64(d.valid.Len())*float64(d.train.Len())*float64(d.train.Dim())/1e9)
	return ix, err
}

// buildSplit replays serve's inline-matrix materialization.
func buildSplit(spec *serve.MatrixSpec) (*ml.Dataset, error) {
	if spec == nil {
		return nil, nil
	}
	x := linalg.NewMatrix(len(spec.X), len(spec.X[0]))
	for r, row := range spec.X {
		for c, v := range row {
			x.Set(r, c, v)
		}
	}
	d, err := ml.NewDataset(x, spec.Y)
	if err != nil {
		return nil, err
	}
	return d, d.CheckFinite()
}

func replayRegister(t *tracer, rq *request, reply []byte) (*splits, error) {
	var req serve.RegisterRequest
	if err := t.decode(rq.body, &req); err != nil {
		return nil, err
	}
	d := &splits{truth: req.Truth}
	var err error
	t.layer("ml.dataset_build", false, func() {
		if d.train, err = buildSplit(req.Train); err != nil {
			return
		}
		if d.valid, err = buildSplit(req.Valid); err != nil {
			return
		}
		d.test, err = buildSplit(req.Test)
	})
	if err != nil {
		return nil, err
	}
	fps := []*linalg.Matrix{d.train.X, d.valid.X}
	if d.test != nil {
		fps = append(fps, d.test.X)
	}
	t.fingerprint(fps...)
	var got serve.RegisterResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return nil, err
	}
	resp := serve.RegisterResponse{ID: got.ID, TrainRows: d.train.Len(), ValidRows: d.valid.Len(), Dim: d.train.Dim()}
	if d.test != nil {
		resp.TestRows = d.test.Len()
	}
	return d, t.encode(resp, reply)
}

// replayImportance replays a kNN-Shapley request. cold: the request missed
// the index cache, so the kernel and the argsort ran inside it.
func replayImportance(t *tracer, rq *request, reply []byte, d *splits, cold bool) error {
	var req serve.ImportanceRequest
	if err := t.decode(rq.body, &req); err != nil {
		return err
	}
	q, n := float64(d.valid.Len()), float64(d.train.Len())
	fp := t.fingerprint(d.train.X, d.valid.X)
	if cold {
		ix, err := t.kernel(d)
		if err != nil {
			return err
		}
		t.layer("ml.argsort", true, func() { ix.Order(0) })
		t.add("ml.argsort_elems", q*n)
	}
	// on the now warm index cache: fingerprint lookup + recurrence
	var sc importance.Scores
	var err error
	rec := t.layer("importance.recurrence", true, func() {
		sc, err = importance.KNNShapleyParallel(req.K, d.train, d.valid, req.Workers)
	})
	t.cur.ms["importance.recurrence"] = max(0, rec-fp)
	t.add("importance.recurrence_steps", q*n)
	if err != nil {
		return err
	}
	return t.encode(serve.ImportanceResponse{Dataset: req.Dataset, K: req.K, Scores: sc}, reply)
}

// replayCached replays a repeat served from a store: decode, lookup, encode.
func replayCached(t *tracer, rq *request, reply []byte) error {
	var req, resp any
	switch rq.kind {
	case "importance":
		req, resp = &serve.ImportanceRequest{}, &serve.ImportanceResponse{}
	default:
		req, resp = &serve.WhatIfRequest{}, &serve.WhatIfResponse{}
	}
	if err := t.decode(rq.body, req); err != nil {
		return err
	}
	if err := json.Unmarshal(reply, resp); err != nil {
		return err
	}
	return t.encode(resp, reply)
}

// replayWhatIf times pipeline.WhatIfRemovalsParallel whole, then its
// children on the same inputs: the base index kernel, the base top-k, and
// per variant RemoveRows + PredictBatchLabels, fanned out as the pipeline
// fans out its variants. The pipeline's self time is the difference,
// clamped at 0.
func replayWhatIf(t *tracer, rq *request, reply []byte, d *splits, ft *pipeline.Featurized) error {
	var req serve.WhatIfRequest
	if err := t.decode(rq.body, &req); err != nil {
		return err
	}
	variants := removalVariants(req.Variants)
	var res []pipeline.WhatIfResult
	var err error
	total := t.layer("pipeline.whatif", false, func() {
		res, err = pipeline.WhatIfRemovalsParallel(ft, variants, newModel, d.valid, req.Workers)
	})
	delete(t.cur.ms, "pipeline.whatif")
	t.add("pipeline.variants", float64(len(variants)))
	if err != nil {
		return err
	}
	ix, err := t.kernel(d)
	if err != nil {
		return err
	}
	children := t.cur.ms["linalg.kernel"]
	children += t.layer("ml.topk", false, func() { ix.PredictBatch(5) })
	errs := make([]error, len(variants))
	children += t.layer("ml.delta", true, func() {
		// fanned out over two goroutines like the pipeline's variant loop
		parallel(len(variants), func(i int) {
			rm := make([]int, len(variants[i].Remove))
			for j, id := range variants[i].Remove {
				rm[j] = id.Row
			}
			child, err := ix.RemoveRows(rm) // the baseline removes nothing: child is ix
			if err == nil {
				_, err = child.PredictBatchLabels(5, child.Train.Y)
			}
			errs[i] = err
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	t.cur.ms["pipeline.whatif_self"] = max(0, total-children)
	return t.encode(whatifResponse(req.Dataset, res), reply)
}

// replayCleaning replays serve's cleaning comparison one strategy after
// another, each as cleaning's iterative loop does it: rank, pick the next
// batch, repair through the oracle, retrain and evaluate.
func replayCleaning(t *tracer, rq *request, reply []byte, d *splits) error {
	var req serve.CleaningRequest
	if err := t.decode(rq.body, &req); err != nil {
		return err
	}
	oracle := &cleaning.LabelOracle{Truth: d.truth}
	var results []*cleaning.Result
	for _, st := range strategies() {
		r, err := replayClean(t, d, oracle, st, req.Batch, req.Budget)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	return t.encode(cleaningResponse(req.Dataset, results), reply)
}

func replayClean(t *tracer, d *splits, oracle cleaning.Oracle, st cleaning.Strategy, batch, budget int) (*cleaning.Result, error) {
	var cur *ml.Dataset
	var acc float64
	var err error
	t.layer("cleaning.oracle", false, func() { cur = d.train.Clone() })
	t.layer("cleaning.evaluate", false, func() { acc, err = ml.EvaluateAccuracy(newModel(), cur, d.test) })
	if err != nil {
		return nil, err
	}
	res := &cleaning.Result{Strategy: st.Name(), Curve: []cleaning.CurvePoint{{Cleaned: 0, Accuracy: acc}}}
	cleaned := map[int]bool{}
	for len(cleaned) < budget && len(cleaned) < d.train.Len() {
		var order []int
		t.layer("cleaning.rank", false, func() { order, err = st.Rank(cur, d.valid) })
		if err != nil {
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
			break
		}
		t.layer("cleaning.oracle", false, func() { cur, err = oracle.Clean(cur, next) })
		if err != nil {
			return nil, err
		}
		for _, i := range next {
			cleaned[i] = true
		}
		t.layer("cleaning.evaluate", false, func() { acc, err = ml.EvaluateAccuracy(newModel(), cur, d.test) })
		if err != nil {
			return nil, err
		}
		res.Curve = append(res.Curve, cleaning.CurvePoint{Cleaned: len(cleaned), Accuracy: acc})
		t.add("cleaning.rounds", 1)
	}
	return res, nil
}

func (s *coldWL) replay(rq *request, reply []byte, t *tracer) error {
	if rq.kind == "register" {
		d, err := replayRegister(t, rq, reply)
		s.replayD = d
		return err
	}
	if s.replayD == nil {
		return fmt.Errorf("importance replay without its registration")
	}
	return replayImportance(t, rq, reply, s.replayD, true)
}

func (s *debugWL) replay(rq *request, reply []byte, t *tracer) error {
	switch {
	case rq.cached:
		return replayCached(t, rq, reply)
	case rq.kind == "importance":
		return replayImportance(t, rq, reply, s.data, false)
	default:
		return replayWhatIf(t, rq, reply, s.data, s.ft)
	}
}

func (s *cleaningWL) replay(rq *request, reply []byte, t *tracer) error {
	return replayCleaning(t, rq, reply, s.data)
}

// runTraced is the per-layer run: one set-up, then the schedule's requests
// from one goroutine (clients take turns). Requests of each endpoint
// alternate between traced (handler span + layer replay) and plain; the
// handler-time ratio of the two classes is trace.overhead.
func runTraced(mk func(int64) scenario, cfg runConfig) (*output, error) {
	sc, h, _, err := fresh(mk, cfg.seed)
	if err != nil {
		return nil, err
	}
	t := &tracer{t0: time.Now(), from: map[string]string{}}
	handler := map[string]*[2][]float64{} // endpoint → plain, traced handler ms
	for _, ep := range endpoints {
		handler[ep] = &[2][]float64{}
	}
	seen := map[string]int{}
	var w replyWriter
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for c := 0; c < sc.clients(); c++ {
			rq := sc.next(c)
			rq.client = c
			ep := rq.endpoint()
			traced := seen[ep]%2 == 0
			seen[ep]++
			var root, hid int
			if traced {
				t.req++
				root = t.begin("request "+ep, 0)
				t.cur = &layerRec{endpoint: ep, ms: map[string]float64{}, val: map[string]float64{}}
				hid = t.begin("serve.handler", root)
			}
			status, reply, d := call(h, &w, rq)
			if traced {
				t.end(hid)
			}
			rq.status, rq.ms, rq.hash = status, ms(d), hashBytes(reply)
			if status/100 == 2 {
				sc.observe(rq, reply)
			}
			if traced {
				if status/100 == 2 && rq.bad == "" {
					t.replay = t.begin("replay", root)
					if err := sc.replay(rq, reply, t); err != nil {
						rq.bad = err.Error()
					}
					t.end(t.replay)
				}
				t.end(root)
				t.cur.handlerMs = rq.ms
				t.recs = append(t.recs, t.cur)
				handler[ep][1] = append(handler[ep][1], rq.ms)
			} else {
				handler[ep][0] = append(handler[ep][0], rq.ms)
			}
			attempted++
			if rq.failed() {
				failed++
				fmt.Printf("# failed %s: status %d %s\n", ep, rq.status, rq.bad)
			}
		}
	}

	out := &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: t.metrics(handler)}
	if err := t.write(cfg, out.Metrics); err != nil {
		return nil, err
	}
	return out, nil
}

// metrics aggregates the traced requests into the per-layer metrics.
func (t *tracer) metrics(handler map[string]*[2][]float64) map[string]metric {
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		best := 0.0
		for _, ep := range endpoints {
			var v []float64
			for _, r := range t.recs {
				if r.endpoint != ep {
					continue
				}
				var x float64
				var ok bool
				if key, isTime := strings.CutSuffix(lm.name, "_ms"); isTime {
					x, ok = r.ms[key]
				} else {
					x, ok = r.val[lm.name]
				}
				if ok {
					v = append(v, x)
				}
			}
			if med := median(v); med > best {
				best = med
				t.from[lm.name] = ep
			}
		}
		m[lm.name] = metric{best, lm.unit}
	}
	var all []float64
	var sumPlain, sumTraced float64
	for _, ep := range endpoints {
		var hs, cov []float64
		for _, r := range t.recs {
			if r.endpoint != ep {
				continue
			}
			hs = append(hs, r.handlerMs)
			self := 0.0
			for _, x := range r.ms {
				self += x
			}
			cov = append(cov, self/r.handlerMs)
		}
		all = append(all, hs...)
		m["serve.handler_ms."+ep] = metric{median(hs), "ms"}
		m["trace.coverage."+ep] = metric{median(cov), "ratio"}
		if c := handler[ep]; len(c[0]) > 0 && len(c[1]) > 0 {
			sumPlain += median(c[0])
			sumTraced += median(c[1])
		}
	}
	m["serve.handler_ms"] = metric{median(all), "ms"}
	over := 0.0
	if sumPlain > 0 {
		over = sumTraced/sumPlain - 1
	}
	m["trace.overhead"] = metric{over, "ratio"}
	return m
}

// write saves the spans in Chrome trace-event format (Perfetto loads it)
// and the per-layer table, and prints the table.
func (t *tracer) write(cfg runConfig, m map[string]metric) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))

	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{Name: s.name, Cat: "e2ebench", Ph: "X",
			Ts: float64(s.start.Sub(t.t0)) / 1e3, Dur: float64(s.end.Sub(s.start)) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"req": s.req, "id": s.id, "parent": s.parent}})
	}
	tb, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", tb, 0o644); err != nil {
		return err
	}

	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	fmt.Fprintf(w, "# per-layer table: %s seed %d, %d traced requests, spans in %s\n",
		cfg.workload, cfg.seed, len(t.recs), base+".trace.json")
	for _, name := range sortedKeys(m) {
		flag := ""
		if ep, ok := t.from[name]; ok {
			flag = "  (" + ep + ")"
		}
		if ep, ok := strings.CutPrefix(name, "trace.coverage."); ok && m["serve.handler_ms."+ep].Value > 0 &&
			m[name].Value < lowCoverage {
			flag = "  LOW: the layers miss part of this endpoint's handler time"
		}
		fmt.Fprintf(w, "# %-32s %14.4f %s%s\n", name, m[name].Value, m[name].Unit, flag)
	}
	w.Flush()
	fmt.Print(b.String())
	return os.WriteFile(base+".layers.txt", b.Bytes(), 0o644)
}
