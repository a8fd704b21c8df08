package histogram

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentMatchesH records the same observations into an H and a
// Concurrent and requires identical statistics.
func TestConcurrentMatchesH(t *testing.T) {
	h := New()
	c := NewConcurrent()
	ds := []time.Duration{
		0, 50, 100, 150 * time.Nanosecond, time.Microsecond,
		3 * time.Microsecond, time.Millisecond, 42 * time.Millisecond,
		time.Second, 2 * time.Hour,
	}
	for _, d := range ds {
		h.Record(d)
		c.Record(d)
	}
	got, want := c.Snapshot(), h
	if got.Count() != want.Count() {
		t.Fatalf("count: got %d want %d", got.Count(), want.Count())
	}
	if got.Mean() != want.Mean() {
		t.Fatalf("mean: got %v want %v", got.Mean(), want.Mean())
	}
	if got.Max() != want.Max() {
		t.Fatalf("max: got %v want %v", got.Max(), want.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if got.Percentile(q) != want.Percentile(q) {
			t.Fatalf("p%.0f: got %v want %v", 100*q, got.Percentile(q), want.Percentile(q))
		}
	}
	if got.Summary() != want.Summary() {
		t.Fatalf("summary: got %+v want %+v", got.Summary(), want.Summary())
	}
}

// TestConcurrentParallelRecord hammers Record from many goroutines and
// checks the aggregate counters (run under -race in check.sh).
func TestConcurrentParallelRecord(t *testing.T) {
	c := NewConcurrent()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Record(time.Duration(w*perWorker+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Count(); got != workers*perWorker {
		t.Fatalf("count: got %d want %d", got, workers*perWorker)
	}
	const total = workers * perWorker
	if got, want := c.Sum(), int64(total*(total-1)/2*time.Microsecond); got != want {
		t.Fatalf("sum: got %d want %d", got, want)
	}
	s := c.Snapshot()
	var n int64
	for _, b := range s.buckets {
		n += b
	}
	if n != workers*perWorker {
		t.Fatalf("bucket sum: got %d want %d", n, workers*perWorker)
	}
	wantMax := time.Duration(workers*perWorker-1) * time.Microsecond
	if s.Max() != wantMax {
		t.Fatalf("max: got %v want %v", s.Max(), wantMax)
	}
	if s.min != 0 {
		t.Fatalf("min: got %d want 0", s.min)
	}
}

// TestConcurrentZeroAlloc proves Record is allocation-free, the
// property the always-on DB metrics depend on.
func TestConcurrentZeroAlloc(t *testing.T) {
	c := NewConcurrent()
	if n := testing.AllocsPerRun(1000, func() { c.Record(time.Microsecond) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call", n)
	}
}

// TestEmptySummary covers the zero-observation edge.
func TestEmptySummary(t *testing.T) {
	c := NewConcurrent()
	s := c.Summary()
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}
