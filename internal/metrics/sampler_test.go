package metrics

import (
	"testing"
	"time"

	"iamdb/internal/histogram"
)

// samplerSource is a hand-driven Cumulative for sampler tests.  Like
// the DB's real source it returns an independent histogram snapshot on
// every read — the sampler differences snapshots, so aliasing a live
// histogram would make every interval empty.  With a clock attached it
// logs every read with the time it was taken.
type samplerSource struct {
	c     Cumulative
	clock Clock
	reads []sourceRead
}

type sourceRead struct {
	at time.Duration
	c  Cumulative
}

func (s *samplerSource) read() Cumulative {
	out := s.c
	out.PerLevelWrite = append([]int64(nil), s.c.PerLevelWrite...)
	if s.c.Put != nil {
		h := histogram.New()
		h.Merge(s.c.Put)
		out.Put = h
	}
	if s.clock != nil {
		s.reads = append(s.reads, sourceRead{s.clock.Now(), out})
	}
	return out
}

// at is the source's cumulative value at edge t: the first read at or
// after t, which is the read of the poll that crossed t.
func (s *samplerSource) at(t *testing.T, edge time.Duration) Cumulative {
	t.Helper()
	for _, r := range s.reads {
		if r.at >= edge {
			return r.c
		}
	}
	t.Fatalf("no read at or after edge %v", edge)
	return Cumulative{}
}

// checkEdges asserts that every point is the difference of the source's
// cumulative values at its Start and End, that the points tile time
// from 0, and that they share one width; it returns the width.
func checkEdges(t *testing.T, src *samplerSource, pts []TimelinePoint) time.Duration {
	t.Helper()
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	width := pts[0].End - pts[0].Start
	for i, p := range pts {
		if want := time.Duration(i) * width; p.Start != want || p.End-p.Start != width {
			t.Errorf("window %d is [%v, %v), want width %v from %v", i, p.Start, p.End, width, want)
		}
		a, b := src.at(t, p.Start), src.at(t, p.End)
		if p.Ops != b.Ops-a.Ops || p.WriteBytes != b.WriteBytes-a.WriteBytes {
			t.Errorf("window %d: ops %d, write bytes %d; edges say %d, %d",
				i, p.Ops, p.WriteBytes, b.Ops-a.Ops, b.WriteBytes-a.WriteBytes)
		}
		for l := range b.PerLevelWrite {
			var prev int64
			if l < len(a.PerLevelWrite) {
				prev = a.PerLevelWrite[l]
			}
			if l >= len(p.PerLevelWrite) || p.PerLevelWrite[l] != b.PerLevelWrite[l]-prev {
				t.Errorf("window %d: per-level write %v, edges %v and %v", i, p.PerLevelWrite, a.PerLevelWrite, b.PerLevelWrite)
				break
			}
		}
		if a.Put != nil && p.Put.Count != b.Put.Count()-a.Put.Count() {
			t.Errorf("window %d: %d puts, edges say %d", i, p.Put.Count, b.Put.Count()-a.Put.Count())
		}
	}
	return width
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

// TestSamplerGapWindows pins the stall shape: when many edges pass
// between polls, they all read the same snapshot, so the whole delta
// lands in the first crossed window and the rest close as zeros — a
// stall renders flat, not smeared.
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

	// At capacity 4, polls that each cross several edges, folds among
	// them: every point still reads its two edges.
	mc = new(ManualClock)
	src = &samplerSource{clock: mc}
	s = NewSampler(mc, time.Millisecond, 4, src.read)
	for _, step := range []struct {
		advance time.Duration
		ops     int64
	}{{5, 100}, {1, 3}, {7, 40}, {2, 0}, {9, 11}, {1, 1}} {
		src.c.Ops += step.ops
		src.c.WriteBytes += 10 * step.ops
		mc.Advance(step.advance * time.Millisecond)
		s.Poll()
		pts := s.Points()
		if len(pts) < 2 || len(pts) >= 4 {
			t.Fatalf("at %v: %d windows, want in [2, 4)", mc.Now(), len(pts))
		}
		checkEdges(t, src, pts)
	}
}

// TestSamplerFolding runs long past capacity and checks the pairwise
// fold: window count stays within [capacity/2, capacity), widths
// double, windows keep tiling, and after every poll each window is the
// difference of the source's values at its two edges, so totals are
// conserved.
func TestSamplerFolding(t *testing.T) {
	mc := new(ManualClock)
	src := &samplerSource{clock: mc}
	src.c.Put = histogram.New()
	const cap = 4
	s := NewSampler(mc, time.Millisecond, cap, src.read)

	var width time.Duration
	for i := 0; i < 100; i++ {
		src.c.Ops += 7
		src.c.Put.Record(time.Duration(i+1) * time.Microsecond)
		if i%10 == 0 {
			src.c.PerLevelWrite = append(src.c.PerLevelWrite, 0)
		}
		src.c.PerLevelWrite[len(src.c.PerLevelWrite)-1] += int64(i)
		mc.Advance(time.Millisecond)
		s.Poll()
		pts := s.Points()
		if i+1 >= cap && (len(pts) < cap/2 || len(pts) >= cap) {
			t.Fatalf("after %d polls got %d windows, want in [%d, %d)", i+1, len(pts), cap/2, cap)
		}
		w := checkEdges(t, src, pts)
		if w < width {
			t.Fatalf("after %d polls the width fell from %v to %v", i+1, width, w)
		}
		width = w
	}
	// 100 windows at capacity 4 fold at least five times, each doubling
	// the width.
	if w := width / time.Millisecond; width%time.Millisecond != 0 || w < 32 || w&(w-1) != 0 {
		t.Errorf("window width = %v, want 1ms doubled at least 5 times", width)
	}
	pts := s.Points()
	var total, hist int64
	for _, p := range pts {
		total += p.Ops
		hist += p.Put.Count
	}
	// Every closed window holds 7 ops and one put per original 1ms slice.
	n := int64(len(pts)) * int64(width/time.Millisecond)
	if total != 7*n || hist != n {
		t.Errorf("timeline holds %d ops and %d puts, want %d and %d", total, hist, 7*n, n)
	}
}

// TestSamplerNil proves every method on a nil sampler is a no-op.
func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Poll()
	if s.Points() != nil {
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
