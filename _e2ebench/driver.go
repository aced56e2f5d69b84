package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nde/internal/importance"
	"nde/internal/obs"
	"nde/internal/serve"
)

// setupRuns is how many times a timed run sets its workload up from
// scratch; setup_s is the median, and the last set-up state is measured.
const setupRuns = 3

// scenario is one workload: its inputs, its request schedule and its
// oracle. The driver calls next and observe from one goroutine per client,
// outside request timing; a scenario keeps per-client state apart.
type scenario interface {
	// clients is the closed-loop client count.
	clients() int
	// setup generates the data, registers it on h and warms the caches the
	// workload assumes warm.
	setup(h http.Handler) error
	// next returns client c's next request.
	next(c int) *request
	// observe checks what can be checked of a reply at once (status aside,
	// which the driver checks) and keeps what the oracle needs.
	observe(rq *request, reply []byte)
	// verify runs the oracle over the window's requests after the window
	// and sets bad on each request whose reply does not match.
	verify(done []*request)
	// replay re-runs rq through the layers' public functions under tr, on
	// the same inputs, and returns an error if the layers' output does not
	// match the handler's reply.
	replay(rq *request, reply []byte, tr *tracer) error
}

// workloads maps each workload name to its scenario constructor.
var workloads = map[string]func(seed int64) scenario{
	"cold-20k":    newCold,
	"debug-20k":   newDebug,
	"cleaning-2k": newCleaning,
}

// request is one HTTP request of the schedule and what became of it.
type request struct {
	kind   string // endpoint: register, importance, whatif, cleaning
	cached bool   // an exact repeat the schedule expects a store to answer
	path   string
	body   []byte
	client int

	status int
	ms     float64
	hash   uint64 // of the reply body
	bad    string // why the reply failed its check; "" if it passed

	// oracle inputs, per kind
	dataset  string
	spec     dataSpec
	k        int
	variants []serve.WhatIfVariant
	orig     *request // for a cached repeat: the request it repeats
}

// endpoint is the metric key of rq: its endpoint, or "cached".
func (rq *request) endpoint() string {
	if rq.cached {
		return "cached"
	}
	return rq.kind
}

func (rq *request) failed() bool { return rq.status/100 != 2 || rq.bad != "" }

var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// replyWriter is a reusable in-process http.ResponseWriter: the reply
// body lands in a buffer its client reuses, so, as with a socket, the
// transport leaves no garbage for the GC. The body is valid until the
// client's next request.
type replyWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *replyWriter) Header() http.Header { return w.header }

func (w *replyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *replyWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

// call sends one request through the handler in process and returns the
// reply status and body with the time ServeHTTP took.
func call(h http.Handler, w *replyWriter, rq *request) (int, []byte, time.Duration) {
	if w.header == nil {
		w.header = http.Header{}
	}
	clear(w.header)
	w.code, w.body = 0, w.body[:0]
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	w.WriteHeader(http.StatusOK) // a handler that writes nothing replies 200
	return w.code, w.body, d
}

// fresh builds a scenario on a fresh server: observability off, the
// process-wide neighbor-index cache emptied, a forced GC, then setup. It
// returns the handler and the setup time (generation, registration,
// warm-up).
func fresh(mk func(int64) scenario, seed int64) (scenario, http.Handler, time.Duration, error) {
	obs.Disable()
	importance.ResetNeighborIndexCache()
	runtime.GC()
	t0 := time.Now()
	sc := mk(seed)
	h := serve.NewServer(serve.Config{}).Handler()
	if err := sc.setup(h); err != nil {
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	return sc, h, time.Since(t0), nil
}

// busyClock accumulates the time at least one request is in flight, so
// req_per_s excludes the clients' own time between requests.
type busyClock struct {
	mu       sync.Mutex
	inflight int
	since    time.Time
	total    time.Duration
}

func (b *busyClock) begin() {
	b.mu.Lock()
	if b.inflight == 0 {
		b.since = time.Now()
	}
	b.inflight++
	b.mu.Unlock()
}

func (b *busyClock) end() {
	b.mu.Lock()
	b.inflight--
	if b.inflight == 0 {
		b.total += time.Since(b.since)
	}
	b.mu.Unlock()
}

// runTimed is the untraced run: setupRuns set-ups, a closed-loop window of
// cfg.seconds, then the oracle. It reports the end-to-end metrics.
func runTimed(mk func(int64) scenario, cfg runConfig) (*output, error) {
	var sc scenario
	var h http.Handler
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		sc, h = nil, nil // let the previous set-up's state go before the GC
		var d time.Duration
		var err error
		if sc, h, d, err = fresh(mk, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var clock busyClock
	var mu sync.Mutex
	var done []*request
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < sc.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var w replyWriter
			for time.Now().Before(deadline) {
				rq := sc.next(c)
				rq.client = c
				clock.begin()
				status, reply, d := call(h, &w, rq)
				clock.end()
				rq.status, rq.ms = status, ms(d)
				rq.hash = hashBytes(reply)
				if status/100 == 2 {
					sc.observe(rq, reply)
				}
				mu.Lock()
				done = append(done, rq)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(h) // the server's state is what heap_live_mb measures
	if len(done) == 0 {
		return nil, fmt.Errorf("no request completed in %gs", cfg.seconds)
	}

	sc.verify(done)

	failed := 0
	var all []float64
	byEP := map[string][]float64{}
	for _, rq := range done {
		if rq.failed() {
			failed++
			fmt.Printf("# failed %s (client %d): status %d %s\n", rq.endpoint(), rq.client, rq.status, rq.bad)
		}
		all = append(all, rq.ms)
		byEP[rq.endpoint()] = append(byEP[rq.endpoint()], rq.ms)
	}
	n := len(done)
	tail, pct := tailOf(all)
	out := &output{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{
		"setup_s":          {median(setups), "s"},
		"req_per_s":        {float64(n) / clock.total.Seconds(), "1/s"},
		"req_ms_p50_ep":    {endpointMedian(byEP), "ms"},
		"req_ms_tail":      {tail, "ms"},
		"alloc_mb_per_req": {float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n) / (1 << 20), "MB"},
		"heap_live_mb":     {float64(live.HeapAlloc) / (1 << 20), "MB"},
	}}

	// Human-readable lines: every end-to-end metric by name and unit,
	// including those the result line cannot carry (per-endpoint medians
	// exist only where a workload reaches the endpoint; error_rate is 0 at
	// a correct commit).
	for _, name := range sortedKeys(out.Metrics) {
		m := out.Metrics[name]
		fmt.Printf("# %-18s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("# %-18s %14.4f ms (plain median of all requests)\n", "req_ms_p50", median(all))
	fmt.Printf("# req_ms_tail is p%.2f of %d requests; setup_s is the median of %d set-ups %v\n", pct, n, setupRuns, setups)
	for _, ep := range []string{"register", "importance", "whatif", "cleaning", "cached"} {
		if v := byEP[ep]; len(v) > 0 {
			fmt.Printf("# %-18s %14.4f ms (n=%d)\n", ep+"_ms_p50", median(v), len(v))
		}
	}
	fmt.Printf("# %-18s %14.4f (failed %d of %d)\n", "error_rate", float64(failed)/float64(n), failed, n)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of v (v is not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endpointMedian is the request-weighted mean of the per-endpoint median
// latencies: Σ n_e·p50_e / Σ n_e. On a workload with one endpoint it is the
// plain median. Where endpoints alternate (cold-20k: register, importance)
// the plain median of all requests falls in the gap between the
// endpoints' latency clusters, so it swings with which cluster holds the
// middle sample and hardly moves when one endpoint gets faster; this
// figure is as steady as each endpoint's median and moves with each.
func endpointMedian(byEP map[string][]float64) float64 {
	sum, n := 0.0, 0
	for _, ep := range sortedKeys(byEP) {
		v := byEP[ep]
		sum += float64(len(v)) * median(v)
		n += len(v)
	}
	return sum / float64(n)
}

// tailOf returns the highest percentile of v with at least ten samples
// beyond it, and that percentile. With ten or fewer samples it is the
// maximum (p100).
func tailOf(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parallel runs fn(i) for i in [0, n) on two goroutines and waits.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
