package histogram

import (
	"testing"
	"time"
)

// TestSub pins interval subtraction: counts and sums are exact, the
// interval percentiles reflect only the later observations, and the
// approximated extrema stay within a bucket of truth.
func TestSub(t *testing.T) {
	h := New()
	h.Record(time.Millisecond)
	h.Record(2 * time.Millisecond)
	prevSnap := New()
	prevSnap.Merge(h)

	h.Record(time.Second)
	h.Record(time.Second)
	h.Record(2 * time.Second)

	d := h.Sub(prevSnap)
	if d.Count() != 3 {
		t.Fatalf("interval count = %d, want 3", d.Count())
	}
	if want := 4 * time.Second / 3; d.Mean() < want*9/10 || d.Mean() > want*11/10 {
		t.Errorf("interval mean = %v, want ≈%v", d.Mean(), want)
	}
	// The millisecond-scale samples belong to prev: interval p50 must be
	// second-scale.
	if p50 := d.Percentile(0.5); p50 < 500*time.Millisecond {
		t.Errorf("interval p50 = %v, old samples leaked in", p50)
	}
	if d.Max() < time.Second || d.Max() > 3*time.Second {
		t.Errorf("interval max ≈ %v, want within a bucket of 2s", d.Max())
	}
	// Subtracting a histogram from itself yields the empty interval.
	z := h.Sub(h)
	if z.Count() != 0 || z.Percentile(0.99) != 0 {
		t.Errorf("self-sub: count=%d p99=%v, want zeros", z.Count(), z.Percentile(0.99))
	}
}

// TestSummaryP999 pins the Summary digest fields, P999 included — a
// timeline window reports its Put p99.9.
func TestSummaryP999(t *testing.T) {
	h := New()
	for i := 0; i < 999; i++ {
		h.Record(time.Millisecond)
	}
	h.Record(time.Second)
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("summary count = %d", s.Count)
	}
	if s.P50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ≈1ms", s.P50)
	}
	if s.P999 < 500*time.Millisecond {
		t.Errorf("p999 = %v, want ≈1s (single outlier must surface)", s.P999)
	}
	if s.P99 > s.P999 {
		t.Errorf("p99 %v > p999 %v", s.P99, s.P999)
	}
	if s.Max < s.P999 {
		t.Errorf("max %v below p999 %v", s.Max, s.P999)
	}
}
