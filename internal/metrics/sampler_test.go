package metrics

import (
	"testing"
	"time"

	"iamdb/internal/histogram"
)

// samplerSource is a hand-driven Cumulative for sampler tests.  Like
// the DB's real source it returns an independent histogram snapshot on
// every read — the sampler differences successive reads, so aliasing a
// live histogram would make every interval empty.
type samplerSource struct {
	c Cumulative
}

func (s *samplerSource) read() Cumulative {
	out := s.c
	if s.c.Put != nil {
		h := histogram.New()
		h.Merge(s.c.Put)
		out.Put = h
	}
	return out
}

// TestSamplerWindows drives the clock across boundaries and checks each
// closed window carries exactly its interval delta.
func TestSamplerWindows(t *testing.T) {
	mc := new(ManualClock)
	src := &samplerSource{}
	s := NewSampler(mc, 10*time.Millisecond, 8, src.read)

	// Inside the first window: no points yet.
	src.c.Ops = 4
	mc.Advance(5 * time.Millisecond)
	s.Poll()
	if pts := s.Points(); len(pts) != 0 {
		t.Fatalf("window not closed yet but %d points", len(pts))
	}

	// Cross the first boundary.
	src.c.Ops = 10
	src.c.WriteBytes = 1 << 20
	src.c.StallNanos = int64(2 * time.Millisecond)
	src.c.PerLevelWrite = []int64{100, 200}
	src.c.CacheHits, src.c.CacheLookups = 3, 4
	src.c.CommitGroups, src.c.CommitBatches = 2, 6
	mc.Advance(5 * time.Millisecond)
	s.Poll()
	pts := s.Points()
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if p.Start != 0 || p.End != 10*time.Millisecond {
		t.Errorf("window bounds [%v, %v], want [0, 10ms]", p.Start, p.End)
	}
	if p.Ops != 10 {
		t.Errorf("window ops = %d, want 10", p.Ops)
	}
	if want := 10.0 / 0.010; p.OpsPerSec != want {
		t.Errorf("ops/sec = %v, want %v", p.OpsPerSec, want)
	}
	if want := 0.2; p.StallFrac != want {
		t.Errorf("stall frac = %v, want %v", p.StallFrac, want)
	}
	if p.WriteBytes != 1<<20 {
		t.Errorf("write bytes = %d", p.WriteBytes)
	}
	if len(p.PerLevelWrite) != 2 || p.PerLevelWrite[1] != 200 {
		t.Errorf("per-level write = %v", p.PerLevelWrite)
	}
	if want := 0.75; p.CacheHitRate != want {
		t.Errorf("cache hit rate = %v, want %v", p.CacheHitRate, want)
	}
	if p.CommitGroups != 2 || p.MeanGroupSize != 3 {
		t.Errorf("groups=%d mean=%v, want 2 and 3", p.CommitGroups, p.MeanGroupSize)
	}

	// Second window's delta counts from the first capture.
	src.c.Ops = 13
	mc.Advance(10 * time.Millisecond)
	s.Poll()
	pts = s.Points()
	if len(pts) != 2 || pts[1].Ops != 3 {
		t.Fatalf("second window = %+v, want ops 3", pts[len(pts)-1])
	}
}

// TestSamplerGapWindows pins the stall shape: when many boundaries pass
// between polls, the whole delta lands in the first crossed window and
// the rest close as zeros — a stall renders flat, not smeared.
func TestSamplerGapWindows(t *testing.T) {
	mc := new(ManualClock)
	src := &samplerSource{}
	s := NewSampler(mc, time.Millisecond, 64, src.read)

	src.c.Ops = 100
	mc.Advance(5 * time.Millisecond) // five boundaries with one poll
	s.Poll()
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("got %d windows, want 5", len(pts))
	}
	if pts[0].Ops != 100 {
		t.Errorf("first window ops = %d, want all 100", pts[0].Ops)
	}
	for i, p := range pts[1:] {
		if p.Ops != 0 {
			t.Errorf("gap window %d ops = %d, want 0", i+1, p.Ops)
		}
	}
	// Windows tile with uniform width.
	for i, p := range pts {
		if want := time.Duration(i) * time.Millisecond; p.Start != want {
			t.Errorf("window %d start = %v, want %v", i, p.Start, want)
		}
		if p.End-p.Start != time.Millisecond {
			t.Errorf("window %d width = %v", i, p.End-p.Start)
		}
	}
}

// TestSamplerFolding runs long past capacity and checks the pairwise
// fold: window count stays within [capacity/2, capacity], widths
// double, totals are conserved, and windows keep tiling.
func TestSamplerFolding(t *testing.T) {
	mc := new(ManualClock)
	src := &samplerSource{}
	src.c.Put = histogram.New()
	const cap = 8
	s := NewSampler(mc, time.Millisecond, cap, src.read)

	for i := 0; i < 100; i++ {
		src.c.Ops += 7
		src.c.Put.Record(time.Duration(i+1) * time.Microsecond)
		mc.Advance(time.Millisecond)
		s.Poll()
	}
	pts := s.Points()
	if len(pts) < cap/2 || len(pts) >= cap {
		t.Fatalf("after folding got %d windows, want in [%d, %d)", len(pts), cap/2, cap)
	}
	// 100 windows at capacity 8 fold at least four times, each doubling
	// the width.
	w := s.Window() / time.Millisecond
	if s.Window()%time.Millisecond != 0 || w < 16 || w&(w-1) != 0 {
		t.Errorf("window width = %v, want 1ms doubled at least 4 times", s.Window())
	}
	var total, hist int64
	for i, p := range pts {
		total += p.Ops
		hist += p.Put.Count
		if i > 0 && p.Start != pts[i-1].End {
			t.Errorf("windows %d/%d do not tile: %v vs %v", i-1, i, pts[i-1].End, p.Start)
		}
		if p.End-p.Start != s.Window() {
			t.Errorf("window %d width %v, want uniform %v", i, p.End-p.Start, s.Window())
		}
	}
	if want := int64(7 * (len(pts) * int(s.Window()/time.Millisecond))); total != want {
		// Every closed window holds 7 ops per original 1ms slice.
		t.Errorf("total ops over timeline = %d, want %d", total, want)
	}
	if want := int64(len(pts)) * int64(s.Window()/time.Millisecond); hist != want {
		t.Errorf("histogram samples conserved = %d, want %d", hist, want)
	}
}

// TestSamplerNil proves every method on a nil sampler is a no-op.
func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Poll()
	if s.Points() != nil || s.Window() != 0 {
		t.Error("nil sampler leaked state")
	}
}

// TestSamplerPollZeroAlloc is the detached-path gate: a Poll that
// crosses no boundary must be one atomic load — no allocations — so
// per-operation polling costs nothing between windows.
func TestSamplerPollZeroAlloc(t *testing.T) {
	mc := new(ManualClock)
	src := &samplerSource{}
	s := NewSampler(mc, time.Hour, 8, src.read)
	var nilS *Sampler
	if n := testing.AllocsPerRun(1000, func() {
		s.Poll()
		nilS.Poll()
	}); n != 0 {
		t.Fatalf("idle Poll allocates %.1f per op, want 0", n)
	}
}

// TestSamplerDefaults pins the constructor fallbacks: window one
// second, capacity 128, odd capacities rounded up to even so pairwise
// folding never strands a window.
func TestSamplerDefaults(t *testing.T) {
	mc := new(ManualClock)
	src := &samplerSource{}
	s := NewSampler(mc, 0, 0, src.read)
	if s.window != time.Second || s.capacity != 128 {
		t.Errorf("defaults: window=%v capacity=%d", s.window, s.capacity)
	}
	if s2 := NewSampler(mc, time.Millisecond, 7, src.read); s2.capacity != 8 {
		t.Errorf("odd capacity rounded to %d, want 8", s2.capacity)
	}
}
