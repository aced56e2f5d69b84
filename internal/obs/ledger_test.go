package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeLedger parses a JSONL buffer into records, failing on any
// malformed line — the "no empty-file corruption" contract.
func decodeLedger(t *testing.T, b *bytes.Buffer) []LedgerRecord {
	t.Helper()
	var recs []LedgerRecord
	sc := bufio.NewScanner(bytes.NewReader(b.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			t.Fatalf("ledger contains a blank line")
		}
		var r LedgerRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("malformed ledger line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// validateLedgerSchema asserts the documented record schema (README
// "Run ledger"): every line has a known type, headers carry run metadata,
// op records carry an op name and a non-negative duration.
func validateLedgerSchema(t *testing.T, recs []LedgerRecord) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatalf("ledger has no records")
	}
	if recs[0].Type != "header" {
		t.Fatalf("first record type = %q, want header", recs[0].Type)
	}
	for i, r := range recs {
		switch r.Type {
		case "header":
			if i != 0 {
				t.Errorf("record %d: duplicate header", i)
			}
			if r.V != LedgerSchemaVersion {
				t.Errorf("header v = %d, want %d", r.V, LedgerSchemaVersion)
			}
			if r.Go == "" || r.GOMAXPROCS < 1 || r.PID == 0 || r.Start == "" {
				t.Errorf("header missing run metadata: %+v", r)
			}
			if _, err := time.Parse(time.RFC3339Nano, r.Start); err != nil {
				t.Errorf("header start %q not RFC3339: %v", r.Start, err)
			}
		case "op":
			if r.Op == "" {
				t.Errorf("record %d: op record without op name", i)
			}
			if r.MS < 0 {
				t.Errorf("record %d: negative duration %v", i, r.MS)
			}
			if r.Time == "" {
				t.Errorf("record %d: op record without timestamp", i)
			}
			if r.Cache != "" && r.Cache != "hit" && r.Cache != "miss" {
				t.Errorf("record %d: cache = %q, want hit/miss/empty", i, r.Cache)
			}
		case "slow_span":
			if r.Op == "" || r.MS < r.ThresholdMS {
				t.Errorf("record %d: bad slow_span %+v", i, r)
			}
		default:
			t.Errorf("record %d: unknown type %q", i, r.Type)
		}
	}
}

func TestLedgerHeaderAndOps(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf, LedgerMeta{Cmd: "test-cmd", Git: "deadbeef"})
	RecordOp("noledger", time.Millisecond, 1, 0, "", "") // not installed yet: dropped
	prev := SetLedger(l)
	defer SetLedger(prev)

	RecordOp("KNNShapleyValues", 12*time.Millisecond, 180, 4, "miss", "")
	RecordOp("WhatIf", 3*time.Millisecond, 8, 0, "", "empty_input")
	SetLedger(prev)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recs := decodeLedger(t, &buf)
	validateLedgerSchema(t, recs)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (header + 2 ops):\n%s", len(recs), buf.String())
	}
	if recs[0].Cmd != "test-cmd" || recs[0].Git != "deadbeef" {
		t.Errorf("header = %+v", recs[0])
	}
	op := recs[1]
	if op.Op != "KNNShapleyValues" || op.Rows != 180 || op.Workers != 4 || op.Cache != "miss" || op.Err != "" {
		t.Errorf("op record = %+v", op)
	}
	if op.MS < 11.9 || op.MS > 12.1 {
		t.Errorf("op ms = %v, want ~12", op.MS)
	}
	if recs[2].Err != "empty_input" {
		t.Errorf("error record class = %q", recs[2].Err)
	}
}

// A ledger with no op records — e.g. obs.Enable toggled too late, or the
// run failed before the first facade call — is still a valid JSONL file
// with exactly the header line.
func TestLedgerEmptyRunStillValid(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf, LedgerMeta{Cmd: "noop"})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs := decodeLedger(t, &buf)
	validateLedgerSchema(t, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want header only", len(recs))
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Errorf("ledger does not end in a newline")
	}
}

func TestLedgerConcurrentAppends(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf, LedgerMeta{Cmd: "conc"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Append(LedgerRecord{Type: "op", Op: "op", MS: 1})
			}
		}()
	}
	wg.Wait()
	recs := decodeLedger(t, &buf) // fails on any interleaved partial line
	if len(recs) != 1+8*50 {
		t.Fatalf("got %d records, want %d", len(recs), 1+8*50)
	}
	validateLedgerSchema(t, recs)
}

func TestLedgerOpenLedgerFile(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	l, err := OpenLedger(path, LedgerMeta{Cmd: "file"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(LedgerRecord{Type: "op", Op: "x", MS: 0.5})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	recs := decodeLedger(t, bytes.NewBuffer(b))
	validateLedgerSchema(t, recs)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestSlowSpanLedgerWarning(t *testing.T) {
	Enable()
	defer Disable()
	defer Reset()
	Reset()
	var buf bytes.Buffer
	l := NewLedger(&buf, LedgerMeta{Cmd: "slow"})
	prev := SetLedger(l)
	defer SetLedger(prev)
	SetSlowSpanThreshold(time.Millisecond)
	defer SetSlowSpanThreshold(0)

	fast := StartSpan("fast.op")
	fast.End() // under threshold: no record
	slow := StartSpan("slow.op")
	time.Sleep(3 * time.Millisecond)
	slow.End()

	SetLedger(prev)
	recs := decodeLedger(t, &buf)
	validateLedgerSchema(t, recs)
	var warns []LedgerRecord
	for _, r := range recs {
		if r.Type == "slow_span" {
			warns = append(warns, r)
		}
	}
	if len(warns) != 1 {
		t.Fatalf("got %d slow_span records, want 1: %+v", len(warns), recs)
	}
	if warns[0].Op != "slow.op" || warns[0].MS < 1 || warns[0].ThresholdMS != 1 {
		t.Errorf("slow_span record = %+v", warns[0])
	}
}

// The disabled ledger path must be allocation-free, like the rest of the
// obs no-op contract.
func TestRecordOpDisabledZeroAllocations(t *testing.T) {
	if prev := SetLedger(nil); prev != nil {
		defer SetLedger(prev)
	}
	allocs := testing.AllocsPerRun(200, func() {
		RecordOp("nde.WhatIf", time.Millisecond, 100, 4, "hit", "")
		maybeRecordSlowSpan("pipeline.op", time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("disabled RecordOp allocated %v objects per run, want 0", allocs)
	}
}

func TestGitSHABestEffort(t *testing.T) {
	// In this repo's checkout GitSHA should resolve to a hex-ish string;
	// anywhere else it must return "" without error. Both are acceptable.
	sha := GitSHA()
	if sha != "" && len(sha) < 7 {
		t.Errorf("GitSHA() = %q, want empty or a commit id", sha)
	}
}
