package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"iamdb/internal/histogram"
)

// Cumulative is the since-open totals a Sampler snapshots at every
// window edge.  The source closure the DB supplies fills it from its
// cheap always-on counters; the sampler never inspects the DB directly.
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

// between is the window [start, end) whose edges read a and b.
func between(start, end time.Duration, a, b Cumulative) TimelinePoint {
	p := TimelinePoint{
		Start: start, End: end,
		Ops:           b.Ops - a.Ops,
		StallFrac:     float64(b.StallNanos-a.StallNanos) / float64(end-start),
		WriteBytes:    b.WriteBytes - a.WriteBytes,
		ReadBytes:     b.ReadBytes - a.ReadBytes,
		PerLevelWrite: subSlice(b.PerLevelWrite, a.PerLevelWrite),
		PerLevelRead:  subSlice(b.PerLevelRead, a.PerLevelRead),
		CommitGroups:  b.CommitGroups - a.CommitGroups,
	}
	if sec := (end - start).Seconds(); sec > 0 {
		p.OpsPerSec = float64(p.Ops) / sec
	}
	if lookups := b.CacheLookups - a.CacheLookups; lookups > 0 {
		p.CacheHitRate = float64(b.CacheHits-a.CacheHits) / float64(lookups)
	}
	if p.CommitGroups > 0 {
		p.MeanGroupSize = float64(b.CommitBatches-a.CommitBatches) / float64(p.CommitGroups)
	}
	switch {
	case b.Put != nil && a.Put != nil:
		p.Put = b.Put.Sub(a.Put).Summary()
	case b.Put != nil:
		p.Put = b.Put.Summary()
	}
	return p
}

// Sampler snapshots a Cumulative source at the edges of uniform time
// windows, into a bounded ring; a window is the difference of its two
// edges.  It is pull-based: callers invoke Poll from their own loops
// (a workload between operations, `iamdb debug` from a ticker
// goroutine); Poll's fast path is one atomic load, so polling per
// operation is cheap.
//
// When the ring fills, every other edge goes and the window width
// doubles — so an arbitrarily long run always yields at least
// capacity/2 and fewer than capacity uniform windows, with resolution
// matched to run length (the HdrHistogram-style log-compaction idea
// applied to time).
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
	start    time.Duration // the first edge
	window   time.Duration
	capacity int
	// edges[i] is the source as read at start + i·window; edges[0] is
	// the baseline read when the sampler started.
	edges []Cumulative
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
		edges: []Cumulative{source()},
		start: clock.Now(),
	}
	s.boundary.Store(int64(s.start + s.window))
	return s
}

// next is the edge that closes the open window.  Caller holds mu.
func (s *Sampler) next() time.Duration {
	return s.start + time.Duration(len(s.edges))*s.window
}

// Poll closes any window edges the clock has crossed.  Nil-safe and
// allocation-free when no edge was crossed (the detached / disabled
// path), so hot loops call it unconditionally.
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
	// Every crossed edge reads the same snapshot, so the whole change
	// since the last edge lands in the first crossed window and the rest
	// of the gap closes as zero windows.  A long stall thus renders as one
	// busy window followed by flat zeros — which is exactly the shape a
	// reader of the timeline must see.
	for now >= s.next() {
		s.edges = append(s.edges, cum)
		if len(s.edges) > s.capacity {
			// Fold: keep every other edge, so each window spans two.
			half := s.edges[:0]
			for i := 0; i < len(s.edges); i += 2 {
				half = append(half, s.edges[i])
			}
			s.edges = half
			s.window *= 2
		}
	}
	s.boundary.Store(int64(s.next()))
	s.mu.Unlock()
}

// Points renders the closed windows, oldest first.  Nil-safe.
func (s *Sampler) Points() []TimelinePoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := make([]TimelinePoint, len(s.edges)-1)
	for i := range pts {
		start := s.start + time.Duration(i)*s.window
		pts[i] = between(start, start+s.window, s.edges[i], s.edges[i+1])
	}
	return pts
}
