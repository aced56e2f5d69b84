package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"nde/internal/linalg"
	"nde/internal/obs"
)

// readCorpus loads a checked-in fuzz corpus: file name → the values of
// each "go test fuzz v1" file (one Go literal per line).
func readCorpus(t testing.TB, target string) map[string][]string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(nil, 1<<20)
		if !sc.Scan() || sc.Text() != "go test fuzz v1" {
			t.Fatalf("%s: not a fuzz corpus file", e.Name())
		}
		for sc.Scan() {
			lit := sc.Text()
			open := strings.IndexByte(lit, '(')
			if open < 0 || !strings.HasSuffix(lit, ")") {
				t.Fatalf("%s: unexpected line %q", e.Name(), lit)
			}
			lit = lit[open+1 : len(lit)-1]
			v, err := strconv.Unquote(lit)
			if err != nil {
				t.Fatalf("%s: cannot unquote %q", e.Name(), lit)
			}
			out[e.Name()] = append(out[e.Name()], v)
		}
	}
	return out
}

// diffRegistration describes the first difference between two decoded
// registrations, or returns "" when they are equal: every matrix value
// compared by its bits, every nil-ness compared as registerDataset sees it.
func diffRegistration(got, want *registration) string {
	if got.name != want.name {
		return fmt.Sprintf("name %q != %q", got.name, want.name)
	}
	if d := diffInts("truth", got.truth, want.truth); d != "" {
		return d
	}
	for _, p := range []struct {
		split     string
		got, want *splitSpec
	}{{"train", got.train, want.train}, {"valid", got.valid, want.valid}, {"test", got.test, want.test}} {
		if d := diffSplit(p.split, p.got, p.want); d != "" {
			return d
		}
	}
	return ""
}

func diffSplit(split string, got, want *splitSpec) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("%s: present %v != %v", split, got != nil, want != nil)
	case got == nil:
		return ""
	case got.csv != want.csv || got.label != want.label:
		return fmt.Sprintf("%s: csv/label %q/%q != %q/%q", split, got.csv, got.label, want.csv, want.label)
	case (got.ragged == nil) != (want.ragged == nil):
		return fmt.Sprintf("%s: ragged %v != %v", split, got.ragged, want.ragged)
	}
	if d := diffInts(split+" y", got.y, want.y); d != "" {
		return d
	}
	return diffMatrix(split, got.x, want.x)
}

func diffMatrix(split string, got, want *linalg.Matrix) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("%s x: present %v != %v", split, got != nil, want != nil)
	case got == nil:
		return ""
	case got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data):
		return fmt.Sprintf("%s x: shape %dx%d (%d values) != %dx%d (%d values)",
			split, got.Rows, got.Cols, len(got.Data), want.Rows, want.Cols, len(want.Data))
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			return fmt.Sprintf("%s x[%d]: bits %#x != %#x", split, i, math.Float64bits(v), math.Float64bits(want.Data[i]))
		}
	}
	return ""
}

func diffInts(what string, got, want []int) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%s: %v (nil %v) != %v (nil %v)", what, got, got == nil, want, want == nil)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s[%d]: %d != %d", what, i, got[i], want[i])
		}
	}
	return ""
}

// The fast path is a pre-check, never a second opinion: for any body it
// either declines, or encoding/json (unknown fields and trailing data
// rejected) accepts the body too and decodes bit-identical values. Every
// matrix it builds is exactly sized.
func FuzzDecodeRegister(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeRegisterFast(body)
		if !ok {
			return
		}
		want, err := decodeRegisterJSON(body)
		if err != nil {
			t.Fatalf("fast path accepted a body encoding/json rejects (%v): %q", err, body)
		}
		if d := diffRegistration(got, want); d != "" {
			t.Fatalf("fast path disagrees with encoding/json: %s\nbody %q", d, body)
		}
		for _, s := range []*splitSpec{got.train, got.valid, got.test} {
			if s != nil && s.x != nil && cap(s.x.Data) != s.x.Rows*s.x.Cols {
				t.Fatalf("matrix %dx%d has cap %d", s.x.Rows, s.x.Cols, cap(s.x.Data))
			}
		}
	})
}

// jsonPathReply answers a register body the way the handler does with the
// fast path left out: encoding/json decodes, then the same build and reply.
func jsonPathReply(body []byte) *httptest.ResponseRecorder {
	s := NewServer(Config{})
	rec := httptest.NewRecorder()
	if reg, err := decodeRegisterJSON(body); err != nil {
		s.writeDecodeErr(rec, err)
	} else {
		s.register(rec, reg, time.Now())
	}
	return rec
}

// Every seed body of FuzzDecodeRegister gets, through the handler, the
// reply encoding/json alone gives it: status, class, message and dataset
// id, byte for byte. The table pins which bodies the fast path takes.
func TestRegisterMatchesJSONPath(t *testing.T) {
	fast := map[string]bool{
		"canonical": true, "canonical-spaced": true, "canonical-minimal": true,
		"neg-zero": true, "num-1e-400": true, "num-long": true,
		"label-negative": true, "label-count": true, "truth-empty": true,
		"dim-mismatch": true, "csv-and-x": true, "csv-escapes": true,
		"name-escapes": true, "name-invalid-utf8": true,
		"empty-object": true, "empty-split": true, "trailing-whitespace": true,

		"num-1e400": false, "num-plus": false, "num-leading-dot": false,
		"num-leading-zero": false, "num-trailing-dot": false, "num-hex": false,
		"num-infinity": false, "num-underscore": false,
		"label-float": false, "label-huge": false, "truth-null": false,
		"key-upper-x": false, "key-upper-train": false, "key-escaped": false,
		"key-top-level-x": false, "key-unknown": false, "dup-train": false, "dup-y": false,
		"null-element": false, "null-row": false, "null-split": false, "null-name": false,
		"ragged": false, "ragged-first-empty": false, "empty-x": false, "empty-rows": false,
		"csv-bad-escape": false, "name-control-char": false,
		"empty-body": false, "top-null": false, "top-array": false, "truncated": false,
		"trailing-garbage": false, "trailing-value": false, "string-number": false, "bom": false,
	}
	corpus := readCorpus(t, "FuzzDecodeRegister")
	if len(corpus) != len(fast) {
		t.Errorf("corpus has %d bodies, table %d", len(corpus), len(fast))
	}
	for name, wantFast := range fast {
		vals, ok := corpus[name]
		if !ok || len(vals) != 1 {
			t.Errorf("%s: no single-body corpus file", name)
			continue
		}
		body := []byte(vals[0])
		if _, ok := decodeRegisterFast(body); ok != wantFast {
			t.Errorf("%s: fast path took it = %v, want %v", name, ok, wantFast)
		}
		got := httptest.NewRecorder()
		NewServer(Config{}).Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body)))
		want := jsonPathReply(body)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s: handler %d %s, encoding/json path %d %s",
				name, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// The register body is read in full before decoding, so a body over the
// cap answers 413 even when its JSON is broken before the cap.
func TestRegisterOverCapIs413(t *testing.T) {
	h := NewServer(Config{MaxBodyBytes: 64}).Handler()
	body := "{x" + strings.Repeat(" ", 100)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(body)))
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusRequestEntityTooLarge || e.Class != "body_too_large" {
		t.Errorf("oversized malformed register = %d %s, want 413 body_too_large", rec.Code, rec.Body)
	}
}

// One register appends one ServeRegister ledger record, which times the
// decode and build and carries the train row count.
func TestRegisterLedgerRecord(t *testing.T) {
	var buf bytes.Buffer
	prev := obs.SetLedger(obs.NewLedger(&buf, obs.LedgerMeta{Cmd: "test", Git: "none"}))
	_, ts := newTestServer(t, Config{})
	register(t, ts, 42)
	obs.SetLedger(prev)

	var recs []obs.LedgerRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.LedgerRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("ledger line %q: %v", line, err)
		}
		if rec.Op == "ServeRegister" {
			recs = append(recs, rec)
		}
	}
	if len(recs) != 1 {
		t.Fatalf("got %d ServeRegister records, want 1:\n%s", len(recs), buf.String())
	}
	if recs[0].Rows != 42 || recs[0].Err != "" || recs[0].MS <= 0 {
		t.Errorf("ServeRegister record = %+v, want rows 42, no error, ms > 0", recs[0])
	}
}
