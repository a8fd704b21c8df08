package engine

import (
	"time"

	"iamdb/internal/metrics"
	"iamdb/internal/trace"
)

// StepKind names a structural step: one of the few data movements every
// compaction strategy is made of (Sec. 4.2's flush, move, split and
// combine, and the append or merge that delivers a flush's records).
type StepKind int

const (
	StepFlush     StepKind = iota // a memtable enters the tree
	StepFlushNode                 // a node's records go to its children (Sec. 4.2.1)
	StepAppend                    // records join a node as one more sequence
	StepMerge                     // a node is rewritten together with incoming records
	StepCompact                   // a baseline's merge of level i files into level i+1
	StepSplit                     // a node with 2t children divides (Sec. 4.2.2)
	StepMove                      // a table changes level by metadata alone
	StepCombine                   // a node is flushed away to restore Ni <= t^i (Sec. 4.2.3)
	numSteps      = iota
)

// NoLevel is the level of a step that happens at no on-disk level: a tree's
// memtable flush, whose level 0 is the memtable itself.
const NoLevel = -1

// when says at which verb a kind is announced: counted and its event fired,
// once, together.
type when int

const (
	// atDone: when its output exists.  A step ended without Done (an append
	// that found no room, an I/O error) is one that did not happen: only its
	// span shows it.
	atDone when = iota
	// atBegin: at once; a move or a combine has no output of its own to wait
	// for.
	atBegin
	// byEnd: at Done, and failing that at End — a flush is counted whatever
	// path it leaves by, so flush events pair 1:1 with the flush counter on
	// error paths too.
	byEnd
)

// steps is what each kind of step reports, for both engine families.  A
// step's level is where its output lands for appends, merges, compactions
// and moves, and where the node lives for flushes, splits and combines.
var steps = [numSteps]struct {
	span   string     // the span's name, after the engine's prefix
	count  LevelStats // what one step adds to its level's row
	flush  bool       // one step is one node flush (StatsSnapshot.Flushes)
	writes bool       // Done's bytes are payload written into the step's level
	timed  bool       // the event carries the step's duration
	when   when
	event  func(*metrics.EventListener, report)
}{
	// A flush's bytes are what left the memtable or the node; where they
	// were written is told by the appends and merges under it.  Only a
	// baseline's flush writes its own output, a level 0 file.
	StepFlush:     {span: "flush", flush: true, writes: true, timed: true, when: byEnd, event: flushEvent},
	StepFlushNode: {span: "flushnode", flush: true, timed: true, when: byEnd, event: flushEvent},
	StepAppend: {span: "append", count: LevelStats{Appends: 1}, writes: true, when: atDone,
		event: func(l *metrics.EventListener, s report) {
			l.AppendEnd(metrics.AppendInfo{Level: s.level, Bytes: s.bytes})
		}},
	StepMerge:   {span: "merge", count: LevelStats{Merges: 1}, writes: true, timed: true, when: atDone, event: mergeEvent},
	StepCompact: {span: "compact", count: LevelStats{Merges: 1}, writes: true, timed: true, when: atDone, event: mergeEvent},
	StepSplit: {span: "split", count: LevelStats{Splits: 1}, writes: true, when: atDone,
		event: func(l *metrics.EventListener, s report) {
			l.SplitEnd(metrics.SplitInfo{Level: s.level, Bytes: s.bytes, NewNodes: int(s.count)})
		}},
	StepMove: {span: "move", count: LevelStats{Moves: 1}, when: atBegin,
		event: func(l *metrics.EventListener, s report) {
			l.MoveEnd(metrics.MoveInfo{FromLevel: s.level - 1, ToLevel: s.level})
		}},
	StepCombine: {span: "combine", count: LevelStats{Combines: 1}, when: atBegin,
		event: func(l *metrics.EventListener, s report) {
			l.CombineEnd(metrics.CombineInfo{Level: s.level})
		}},
}

// report is what a step tells its event.  It goes to the kind's function
// by value: a Step handed to a function value would move every step to the
// heap.
type report struct {
	level        int
	bytes, count int64
	took         time.Duration // timed kinds only
}

func flushEvent(l *metrics.EventListener, s report) {
	l.FlushEnd(metrics.FlushInfo{Bytes: s.bytes, Duration: s.took})
}

func mergeEvent(l *metrics.EventListener, s report) {
	l.MergeEnd(metrics.MergeInfo{Level: s.level, Bytes: s.bytes, Duration: s.took})
}

// Reporter is where an engine reports its structural steps: each step is
// stated once and becomes a trace span, the engine's counters and a
// listener event.  It owns the engine's Stats.  Begin and the steps it
// returns are used under the table set's structural mutex only — that is
// what makes a step begun while another is open its child; Snapshot is safe
// from anywhere.
type Reporter struct {
	Stats
	events *metrics.EventListener
	clock  metrics.Clock
	trace  *trace.Recorder
	names  [numSteps]string
	open   uint64 // span of the innermost step not yet ended
}

// NewReporter returns the reporter of the engine whose spans are named
// prefix.kind, from what the engine's Config carries: nil events mean no-op
// listeners, a nil clock the zero clock (events fire, durations read 0), a
// nil recorder no spans, at no cost.
func NewReporter(prefix string, events *metrics.EventListener, clock metrics.Clock, rec *trace.Recorder) *Reporter {
	if clock == nil {
		clock = metrics.NopClock
	}
	r := &Reporter{events: events.EnsureDefaults(), clock: clock, trace: rec}
	for k := range steps {
		r.names[k] = prefix + "." + steps[k].span
	}
	return r
}

// Step is a structural step in flight.  The zero-cost disabled path of
// trace.Ctx carries over: without a recorder no verb allocates.
type Step struct {
	r    *Reporter
	kind StepKind
	report
	start     time.Duration // timed kinds only
	span      trace.Ctx
	under     uint64 // the reporter's open span when this step began
	announced bool
}

// Begin opens a step of the given kind at level (NoLevel for none), as a
// child of the step still open, if any.  The caller defers End.
func (r *Reporter) Begin(kind StepKind, level int) Step {
	s := Step{r: r, kind: kind, report: report{level: level}, under: r.open}
	if steps[kind].timed {
		s.start = r.clock.Now()
	}
	s.span = r.trace.BeginAt(r.names[kind], r.open)
	s.span.SetLevel(level)
	r.open = s.span.ID()
	if steps[kind].when == atBegin {
		s.announce()
	}
	return s
}

// In and Out add one table to the step's lineage: a table the step
// consumes, a table it produces.
func (s *Step) In(file uint64)  { s.span.AddIn(file) }
func (s *Step) Out(file uint64) { s.span.AddOut(file) }

// Read counts bytes of compaction input read from level (the level the
// input lives at, which for a baseline's compaction is not always the
// step's own).
func (s *Step) Read(level int, bytes int64) {
	s.r.add(level, LevelStats{ReadBytes: bytes})
}

// Done states the step's result: payload bytes and, where the kind has
// one, a count (records appended, tables produced).
func (s *Step) Done(bytes, count int64) {
	s.bytes, s.count = bytes, count
	s.span.SetBytes(bytes)
	s.span.SetCount(count)
	if steps[s.kind].writes && s.level != NoLevel {
		s.r.add(s.level, LevelStats{WriteBytes: bytes})
	}
	if !s.announced {
		s.announce()
	}
}

// End closes the step's span; it is deferred, so that a step ends on every
// path out of the function that began it.
func (s *Step) End() {
	s.r.open = s.under
	s.span.End()
	if steps[s.kind].when == byEnd && !s.announced {
		s.announce()
	}
}

func (s *Step) announce() {
	s.announced = true
	def := &steps[s.kind]
	if def.flush {
		s.r.addFlush()
	}
	if def.count != (LevelStats{}) {
		s.r.add(s.level, def.count)
	}
	if def.timed {
		s.took = s.r.clock.Now() - s.start
	}
	def.event(s.r.events, s.report)
}

// Wrote counts payload bytes written into level by no step of their own:
// the nodes a tree's flush writes outright under a parent with no children
// are part of that flush, with no span and no event.
func (r *Reporter) Wrote(level int, bytes int64) {
	r.add(level, LevelStats{WriteBytes: bytes})
}
