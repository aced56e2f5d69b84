package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// REGRESSION for the drain admission race: compute used to check the
// draining flag and only later add itself to the drain WaitGroup, so a
// Drain landing between the two waited on a zero counter, returned, and
// the computation then ran anyway. Many cheap sync and async computations
// race Drain here; once Drain returns, no admitted computation may still
// be running. A tight budget also turns many requests away with 429,
// which must give their drain slot back or Drain hangs.
func TestDrainWaitsForEveryAdmittedComputation(t *testing.T) {
	const rounds = 40
	const clients = 8
	for round := 0; round < rounds; round++ {
		s := NewServer(Config{Slots: 2, Queue: 2})
		var drained atomic.Bool
		var late atomic.Int64 // computations that finished after Drain returned
		fn := func() (any, error) {
			time.Sleep(20 * time.Microsecond)
			if drained.Load() {
				late.Add(1)
			}
			return struct{}{}, nil
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(async bool) {
				defer wg.Done()
				<-start
				for {
					w := httptest.NewRecorder()
					r := httptest.NewRequest(http.MethodPost, "/v1/importance", nil)
					s.compute(w, r, "DrainRace", async, 0, 1, fn)
					if w.Code == http.StatusServiceUnavailable {
						return // draining: admission is closed
					}
				}
			}(c%2 == 1)
		}
		close(start)
		time.Sleep(time.Duration(round%4) * 50 * time.Microsecond)

		done := make(chan struct{})
		go func() {
			s.Drain()
			drained.Store(true)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Drain hung (a rejected request kept its drain slot?)", round)
		}
		wg.Wait()
		// async workers still finishing would report through late; give
		// any such straggler a moment to land before checking
		time.Sleep(time.Millisecond)
		if n := late.Load(); n != 0 {
			t.Fatalf("round %d: %d admitted computations were still running when Drain returned", round, n)
		}
	}
}
