package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"iamdb/internal/histogram"
)

// Cumulative is the since-open totals a Sampler differences into
// per-window deltas.  The source closure the DB supplies fills it from
// its cheap always-on counters; the sampler never inspects the DB
// directly.
type Cumulative struct {
	// Ops counts user operations (batch records + point reads).
	Ops int64
	// StallNanos is cumulative write-stall time.
	StallNanos int64
	// WriteBytes and ReadBytes are device traffic.
	WriteBytes int64
	ReadBytes  int64
	// PerLevelWrite and PerLevelRead are engine per-level traffic.
	PerLevelWrite []int64
	PerLevelRead  []int64
	// CacheHits and CacheLookups drive the per-window hit rate.
	CacheHits    int64
	CacheLookups int64
	// CommitGroups and CommitBatches yield the mean group size.
	CommitGroups  int64
	CommitBatches int64
	// Put is the cumulative commit-latency histogram (nil allowed).
	Put *histogram.H
}

func subSlice(a, b []int64) []int64 {
	if len(a) == 0 {
		return nil
	}
	out := make([]int64, len(a))
	copy(out, a)
	for i := range b {
		if i < len(out) {
			out[i] -= b[i]
		}
	}
	return out
}

func addSlice(a, b []int64) []int64 {
	if len(b) > len(a) {
		a = append(a, make([]int64, len(b)-len(a))...)
	}
	for i := range b {
		a[i] += b[i]
	}
	return a
}

// sub returns the interval c − prev.
func (c Cumulative) sub(prev Cumulative) Cumulative {
	d := Cumulative{
		Ops:           c.Ops - prev.Ops,
		StallNanos:    c.StallNanos - prev.StallNanos,
		WriteBytes:    c.WriteBytes - prev.WriteBytes,
		ReadBytes:     c.ReadBytes - prev.ReadBytes,
		PerLevelWrite: subSlice(c.PerLevelWrite, prev.PerLevelWrite),
		PerLevelRead:  subSlice(c.PerLevelRead, prev.PerLevelRead),
		CacheHits:     c.CacheHits - prev.CacheHits,
		CacheLookups:  c.CacheLookups - prev.CacheLookups,
		CommitGroups:  c.CommitGroups - prev.CommitGroups,
		CommitBatches: c.CommitBatches - prev.CommitBatches,
	}
	if c.Put != nil {
		if prev.Put != nil {
			d.Put = c.Put.Sub(prev.Put)
		} else {
			d.Put = c.Put
		}
	}
	return d
}

// TimelinePoint is one closed window of the timeline: rates and
// interval percentiles over [Start, End).  Durations serialize as
// nanoseconds.
type TimelinePoint struct {
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Ops and OpsPerSec are the window's operation count and rate.
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// StallFrac is stall time over window length (can exceed 1 with
	// several concurrently stalled writers).
	StallFrac float64 `json:"stall_frac"`
	// WriteBytes/ReadBytes are device traffic in the window.
	WriteBytes int64 `json:"write_bytes"`
	ReadBytes  int64 `json:"read_bytes"`
	// PerLevelWrite/PerLevelRead attribute engine traffic per level.
	PerLevelWrite []int64 `json:"per_level_write,omitempty"`
	PerLevelRead  []int64 `json:"per_level_read,omitempty"`
	// CacheHitRate is hits over lookups inside the window (0 when the
	// window had no lookups).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CommitGroups and MeanGroupSize describe group-commit batching.
	CommitGroups  int64   `json:"commit_groups"`
	MeanGroupSize float64 `json:"mean_group_size"`
	// Put digests the window's commit latencies (interval percentiles).
	Put histogram.Summary `json:"put"`
}

// window is a closed window held internally: the raw delta plus its
// bounds, folded on demand.
type samplerWindow struct {
	start, end time.Duration
	d          Cumulative
}

func (w samplerWindow) point() TimelinePoint {
	p := TimelinePoint{
		Start: w.start, End: w.end,
		Ops:           w.d.Ops,
		StallFrac:     float64(w.d.StallNanos) / float64(w.end-w.start),
		WriteBytes:    w.d.WriteBytes,
		ReadBytes:     w.d.ReadBytes,
		PerLevelWrite: w.d.PerLevelWrite,
		PerLevelRead:  w.d.PerLevelRead,
		CommitGroups:  w.d.CommitGroups,
	}
	if sec := (w.end - w.start).Seconds(); sec > 0 {
		p.OpsPerSec = float64(w.d.Ops) / sec
	}
	if w.d.CacheLookups > 0 {
		p.CacheHitRate = float64(w.d.CacheHits) / float64(w.d.CacheLookups)
	}
	if w.d.CommitGroups > 0 {
		p.MeanGroupSize = float64(w.d.CommitBatches) / float64(w.d.CommitGroups)
	}
	if w.d.Put != nil {
		p.Put = w.d.Put.Summary()
	}
	return p
}

func mergeWindows(a, b samplerWindow) samplerWindow {
	m := samplerWindow{start: a.start, end: b.end}
	m.d = Cumulative{
		Ops:           a.d.Ops + b.d.Ops,
		StallNanos:    a.d.StallNanos + b.d.StallNanos,
		WriteBytes:    a.d.WriteBytes + b.d.WriteBytes,
		ReadBytes:     a.d.ReadBytes + b.d.ReadBytes,
		PerLevelWrite: addSlice(append([]int64(nil), a.d.PerLevelWrite...), b.d.PerLevelWrite),
		PerLevelRead:  addSlice(append([]int64(nil), a.d.PerLevelRead...), b.d.PerLevelRead),
		CacheHits:     a.d.CacheHits + b.d.CacheHits,
		CacheLookups:  a.d.CacheLookups + b.d.CacheLookups,
		CommitGroups:  a.d.CommitGroups + b.d.CommitGroups,
		CommitBatches: a.d.CommitBatches + b.d.CommitBatches,
	}
	switch {
	case a.d.Put != nil && b.d.Put != nil:
		h := histogram.New()
		h.Merge(a.d.Put)
		h.Merge(b.d.Put)
		m.d.Put = h
	case a.d.Put != nil:
		m.d.Put = a.d.Put
	default:
		m.d.Put = b.d.Put
	}
	return m
}

// Sampler captures windowed deltas of a Cumulative source into a
// bounded ring of timeline points.  It is pull-based: callers invoke
// Poll from their own loops (the harness polls between operations, the
// DB's debug server from a ticker goroutine); Poll's fast path is one
// atomic load, so polling per operation is cheap.
//
// When the ring fills, adjacent windows fold pairwise and the window
// width doubles — so an arbitrarily long run always yields between
// capacity/2 and capacity uniform windows, with resolution matched to
// run length (the HdrHistogram-style log-compaction idea applied to
// time).
//
// All state is guarded by mu, a leaf lock: the source snapshot (which
// may take DB and engine locks) is read before mu is acquired.
//
//iamlint:lockorder metrics.Sampler.mu leaf
type Sampler struct {
	clock  Clock
	source func() Cumulative

	// boundary is the next window edge, read without mu on the Poll
	// fast path.
	boundary atomic.Int64

	mu       sync.Mutex
	window   time.Duration
	capacity int
	wins     []samplerWindow
	prev     Cumulative
	winStart time.Duration
}

// NewSampler starts a timeline at the clock's current reading.  window
// is the initial width (doubling as the run outgrows capacity);
// capacity ≤ 0 defaults to 128, window ≤ 0 to one second.  The source
// is read once immediately to establish the baseline.
func NewSampler(clock Clock, window time.Duration, capacity int, source func() Cumulative) *Sampler {
	if window <= 0 {
		window = time.Second
	}
	if capacity <= 0 {
		capacity = 128
	}
	if capacity%2 == 1 {
		capacity++
	}
	s := &Sampler{
		clock: clock, source: source,
		window: window, capacity: capacity,
		prev:     source(),
		winStart: clock.Now(),
	}
	s.boundary.Store(int64(s.winStart + s.window))
	return s
}

// Poll closes any window boundaries the clock has crossed.  Nil-safe
// and allocation-free when no boundary was crossed (the detached /
// disabled path), so hot loops call it unconditionally.
func (s *Sampler) Poll() {
	if s == nil {
		return
	}
	now := s.clock.Now()
	if int64(now) < s.boundary.Load() {
		return
	}
	// Snapshot the source before taking mu: the source may acquire DB
	// and engine locks, so mu stays a leaf.
	cum := s.source()
	s.mu.Lock()
	// The whole delta since the last capture lands in the first crossed
	// window; the remaining gap closes as zero windows.  A long stall
	// thus renders as one busy window followed by flat zeros — which is
	// exactly the shape the stability score must see.
	for now >= s.winStart+s.window {
		end := s.winStart + s.window
		s.push(samplerWindow{start: s.winStart, end: end, d: cum.sub(s.prev)})
		s.prev = cum
		s.winStart = end
	}
	s.boundary.Store(int64(s.winStart + s.window))
	s.mu.Unlock()
}

// push appends one closed window, folding the ring when full.  Caller
// holds mu.
func (s *Sampler) push(w samplerWindow) {
	s.wins = append(s.wins, w)
	if len(s.wins) < s.capacity {
		return
	}
	half := s.wins[:0]
	for i := 0; i+1 < len(s.wins); i += 2 {
		half = append(half, mergeWindows(s.wins[i], s.wins[i+1]))
	}
	s.wins = half
	s.window *= 2
}

// Points renders the closed windows, oldest first.  Nil-safe.
func (s *Sampler) Points() []TimelinePoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := make([]TimelinePoint, len(s.wins))
	for i, w := range s.wins {
		pts[i] = w.point()
	}
	return pts
}

// Window reports the current window width (after any folding).
func (s *Sampler) Window() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window
}
