package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nde/internal/serve"
)

func smallSpec(seed int64) dataSpec {
	return dataSpec{Seed: seed, Train: 300, Valid: 20, Test: 30, Flip: 0.2}
}

// The generator is byte-deterministic for a seed, also through reused
// buffers, and two seeds give different datasets.
func TestGeneratorDeterministic(t *testing.T) {
	a := registerBody(nil, generate(smallSpec(7)))
	var reuse genData
	generateInto(&reuse, smallSpec(99))
	b := registerBody(nil, generateInto(&reuse, smallSpec(7)))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different request bodies")
	}
	if bytes.Equal(a, registerBody(nil, generate(smallSpec(8)))) {
		t.Fatal("different seeds, identical request bodies")
	}
	if mix(1, 0) == mix(2, 0) || mix(1, 0) == mix(1, 1) {
		t.Fatal("dataset seeds collide")
	}
}

// The body decodes into serve's wire type with exactly the generated
// values, so the oracle's regenerated data equals what the server holds.
func TestRegisterBodyRoundTrips(t *testing.T) {
	g := generate(smallSpec(3))
	dec := json.NewDecoder(bytes.NewReader(registerBody(nil, g)))
	dec.DisallowUnknownFields()
	var req serve.RegisterRequest
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	d, err := buildSplit(req.Train)
	if err != nil {
		t.Fatal(err)
	}
	want := g.splits()
	if d.X.Fingerprint() != want.train.X.Fingerprint() {
		t.Fatal("decoded train features differ from the generated ones")
	}
	flipped := 0
	for i, y := range req.Train.Y {
		if y != req.Truth[i] {
			flipped++
		}
	}
	if flipped != 60 {
		t.Fatalf("%d flipped labels, want 20%% of 300", flipped)
	}
}

// A short traced run of every workload writes a Chrome trace and the
// per-layer table, reports every per-layer metric, and its replayed
// layers agree with the handler's replies.
func TestTracedRunWritesSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloadNames() {
		out, err := runTraced(workloads[w], runConfig{workload: w, seed: 1, seconds: 2, traceDir: dir})
		if err != nil {
			t.Fatal(w, err)
		}
		if !out.Correct || out.Attempted == 0 {
			t.Fatalf("%s: %d of %d requests failed", w, out.Failed, out.Attempted)
		}
		for _, lm := range layerMetrics {
			if _, ok := out.Metrics[lm.name]; !ok {
				t.Fatalf("%s: no %s", w, lm.name)
			}
		}
		argsort := out.Metrics["ml.argsort_elems"].Value
		if (w == "cold-20k") != (argsort > 0) {
			t.Fatalf("%s: ml.argsort_elems = %v", w, argsort)
		}
		raw, err := os.ReadFile(filepath.Join(dir, w+"-seed1.trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Fatalf("%s: trace file: %v, %d events", w, err, len(tr.TraceEvents))
		}
		for _, e := range tr.TraceEvents {
			if e.Ph != "X" || e.Dur < 0 || e.Name == "" {
				t.Fatalf("%s: malformed event %+v", w, e)
			}
		}
		table, err := os.ReadFile(filepath.Join(dir, w+"-seed1.layers.txt"))
		if err != nil || !strings.Contains(string(table), "trace.coverage.") {
			t.Fatalf("%s: layer table: %v", w, err)
		}
	}
}
