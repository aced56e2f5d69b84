package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Every POST /v1/* body, against a server holding one small dataset
// (registered with test split and truth, so cleaning runs): nothing
// panics, and every non-2xx reply is the {"error", "class"} envelope with
// a non-empty class. ep picks the endpoint; "@id" in a body stands for the
// dataset's id.
func FuzzServeHandler(f *testing.F) {
	s := NewServer(Config{MaxBodyBytes: 4 << 10})
	f.Cleanup(s.Drain) // async runs finish before the target returns
	raw, err := json.Marshal(registerBody(20))
	if err != nil {
		f.Fatal(err)
	}
	seed, err := decodeRegisterJSON(raw)
	if err != nil {
		f.Fatal(err)
	}
	d, err := s.registerDataset(seed)
	if err != nil {
		f.Fatal(err)
	}
	id := []byte(d.id)
	h := s.Handler()
	paths := [...]string{"/v1/datasets", "/v1/importance", "/v1/whatif", "/v1/cleaning"}

	f.Fuzz(func(t *testing.T, ep byte, body []byte) {
		// fuzzed registrations can evict the dataset; put it back
		if _, ok := s.lookup(d.id); !ok {
			if _, err := s.registerDataset(seed); err != nil {
				t.Fatal(err)
			}
		}
		body = bytes.ReplaceAll(body, []byte("@id"), id)
		path := paths[int(ep)%len(paths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code/100 == 2 {
			return
		}
		var env map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %d: reply is not JSON (%v): %q", path, rec.Code, err, rec.Body)
		}
		msg, okMsg := env["error"].(string)
		class, okClass := env["class"].(string)
		if len(env) != 2 || !okMsg || msg == "" || !okClass || class == "" {
			t.Fatalf("%s %d: reply is not the error envelope: %q", path, rec.Code, rec.Body)
		}
	})
}
