// Package trace is the storage engine's structured tracing layer: a
// fixed-size ring buffer of completed spans recording the DB's hot
// structural events — commit-group lifecycle, the flush cascade,
// per-job compaction/append/merge/split/combine with input/output file
// lineage, and write stalls.
//
// Time always arrives through an injected metrics.Clock, never the
// wall clock (the package is inside the iamlint determinism scope), so
// traces taken on the virtual-clock harness are deterministic and two
// identical runs export byte-identical files.
//
// The disabled path is strictly zero-cost: every method is nil-safe,
// and Begin/Child/End/Add* on a nil *Recorder perform no allocations
// and touch no shared state, so a DB opened without a recorder pays
// nothing on Put/Get.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"iamdb/internal/metrics"
)

// Span is one completed traced operation.  Start and End are clock
// readings (elapsed time since the recorder's clock epoch); Level,
// Bytes, Count, In and Out are optional structured arguments — Level
// is -1 when not applicable, In/Out carry input/output file numbers
// for lineage (which files a merge consumed and produced).
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Duration
	End    time.Duration
	Level  int
	Bytes  int64
	Count  int64
	In     []uint64
	Out    []uint64
}

// Recorder collects completed spans into a fixed-size ring: the most
// recent spans win, older ones are overwritten.  Spans are recorded at
// End, so spans still open when an export runs are absent (by design —
// recording at End keeps Begin lock-free).
//
// Recorder.mu is a leaf lock: End reads the clock before acquiring it
// and holds it only to copy the span into the ring, so it may be taken
// while any engine or DB lock is held without ordering hazards.
//
//iamlint:lockorder trace.Recorder.mu leaf
type Recorder struct {
	clock metrics.Clock
	ids   atomic.Uint64

	mu    sync.Mutex
	ring  []Span
	next  int    // ring slot the next span lands in
	total uint64 // spans ever recorded
}

// NewRecorder returns a recorder keeping the last capacity spans,
// timestamped by clock.  capacity ≤ 0 defaults to 4096; a nil clock
// defaults to metrics.NopClock (spans record with zero timestamps).
func NewRecorder(capacity int, clock metrics.Clock) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	if clock == nil {
		clock = metrics.NopClock
	}
	return &Recorder{clock: clock, ring: make([]Span, capacity)}
}

// Enabled reports whether spans are being recorded.  It is the guard
// for any argument preparation too expensive for the disabled path.
func (r *Recorder) Enabled() bool { return r != nil }

// Ctx is an in-flight span.  The zero value (from a nil recorder) is
// inert: every method is a no-op, so callers thread Ctx values through
// the hot paths unconditionally.
type Ctx struct {
	r      *Recorder
	id     uint64
	parent uint64
	name   string
	start  time.Duration
	level  int
	bytes  int64
	count  int64
	in     []uint64
	out    []uint64
}

// Begin opens a root span.  On a nil recorder it returns the inert
// zero Ctx without reading the clock or allocating.
func (r *Recorder) Begin(name string) Ctx {
	if r == nil {
		return Ctx{}
	}
	return Ctx{r: r, id: r.ids.Add(1), name: name, start: r.clock.Now(), level: -1}
}

// BeginAt opens a span under an existing span ID — for parents tracked
// across structures (engine.Reporter opens each step of a flush cascade
// under the step that caused it).  parent 0 means root.
func (r *Recorder) BeginAt(name string, parent uint64) Ctx {
	c := r.Begin(name)
	c.parent = parent
	return c
}

// Child opens a span under c.
func (c *Ctx) Child(name string) Ctx {
	if c.r == nil {
		return Ctx{}
	}
	return c.r.BeginAt(name, c.id)
}

// ID reports the span's ID (0 when inert), for cross-structure
// parenting via BeginAt.
func (c *Ctx) ID() uint64 { return c.id }

// SetLevel attaches the tree level the work happened at.
func (c *Ctx) SetLevel(lvl int) {
	if c.r != nil {
		c.level = lvl
	}
}

// SetBytes attaches the payload size.
func (c *Ctx) SetBytes(n int64) {
	if c.r != nil {
		c.bytes = n
	}
}

// SetCount attaches an operation count (batches, nodes, sequences).
func (c *Ctx) SetCount(n int64) {
	if c.r != nil {
		c.count = n
	}
}

// AddIn appends one input file number to the span's lineage.  A no-op
// (and allocation-free) when disabled, so callers may loop over inputs
// unconditionally.
func (c *Ctx) AddIn(file uint64) {
	if c.r != nil {
		c.in = append(c.in, file)
	}
}

// AddOut appends one output file number to the span's lineage.
func (c *Ctx) AddOut(file uint64) {
	if c.r != nil {
		c.out = append(c.out, file)
	}
}

// End completes the span and records it.  The clock is read before the
// ring lock is taken, so Recorder.mu stays a leaf lock.
func (c *Ctx) End() {
	r := c.r
	if r == nil {
		return
	}
	end := r.clock.Now()
	r.mu.Lock()
	r.ring[r.next] = Span{
		ID: c.id, Parent: c.parent, Name: c.name,
		Start: c.start, End: end,
		Level: c.level, Bytes: c.bytes, Count: c.count,
		In: c.in, Out: c.out,
	}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot copies the completed spans out of the ring, oldest first.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.ring)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	out := make([]Span, 0, n)
	if r.total >= uint64(len(r.ring)) {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring[:r.next]...)
	}
	return out
}

// Len reports how many completed spans the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.ring)) {
		return int(r.total)
	}
	return len(r.ring)
}

// Dropped reports how many spans the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.ring)) {
		return 0
	}
	return r.total - uint64(len(r.ring))
}
