package store

import (
	"sync"
	"testing"

	"nde/internal/obs"
)

func TestPutInsertsAndFirstBuildWins(t *testing.T) {
	withObs(t)
	s := New[string, int]("st_put", 4)
	if !s.Put("a", 1) {
		t.Fatal("Put of a new key must report insertion")
	}
	if v, ok := s.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = (%d, %v), want (1, true)", v, ok)
	}
	// first build wins: a second Put of the same key is a no-op
	if s.Put("a", 99) {
		t.Fatal("Put over an existing key must report no insertion")
	}
	if v, _ := s.Get("a"); v != 1 {
		t.Fatalf("Put overwrote an existing artifact: got %d, want 1", v)
	}
	if got := obs.Default().Counter("st_put_puts_total").Value(); got != 1 {
		t.Fatalf("puts_total = %d, want 1 (only the insertion counts)", got)
	}
}

func TestPutDoesNotPreemptInFlightBuild(t *testing.T) {
	s := New[string, int]("st_put_flight", 4)
	release := make(chan struct{})
	var wg sync.WaitGroup
	var built int
	wg.Add(1)
	go func() {
		defer wg.Done()
		built, _ = s.GetOrBuild("k", func() (int, error) {
			<-release
			return 7, nil
		})
	}()
	waitInflight(t, s, 1)
	if s.Put("k", 42) {
		t.Error("Put must not preempt an in-flight build for the same key")
	}
	close(release)
	wg.Wait()
	if built != 7 {
		t.Fatalf("in-flight builder returned %d, want its own 7", built)
	}
	if v, _ := s.Get("k"); v != 7 {
		t.Fatalf("cached value = %d, want the in-flight build's 7", v)
	}
}

func TestPutRespectsLRUAndCapacity(t *testing.T) {
	s := New[string, int]("st_put_lru", 2)
	s.Put("a", 1)
	s.Put("b", 2)
	s.Put("a", -1) // touch a: b becomes the victim
	s.Put("c", 3)
	if _, ok := s.Get("a"); !ok {
		t.Error("recently touched entry a was evicted")
	}
	if _, ok := s.Get("b"); ok {
		t.Error("LRU entry b survived eviction after Put overflow")
	}
	if _, ok := s.Get("c"); !ok {
		t.Error("fresh Put entry c missing")
	}
	if n := s.Len(); n != 2 {
		t.Errorf("len = %d, want capacity 2", n)
	}
}
