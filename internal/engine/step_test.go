package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"iamdb/internal/metrics"
	"iamdb/internal/trace"
)

// eventLog is a listener that writes every step event down as a line.
func eventLog(lines *[]string) *metrics.EventListener {
	return metrics.NewLoggingListener(func(format string, args ...any) {
		*lines = append(*lines, fmt.Sprintf(format, args...))
	})
}

// TestEachKindReportsOnce runs one step of every kind through all four
// verbs and checks the three sinks against the kind's row: exactly its
// counter moved, exactly its event fired, once, with the step's payload,
// and the span carries the engine's prefix, the level, the result and the
// lineage.
func TestEachKindReportsOnce(t *testing.T) {
	const level, bytes, count = 2, 4096, 3
	for kind, tc := range []struct {
		span  string
		want  StatsSnapshot // besides the read and, where the kind writes, the bytes
		wrote bool
		event string
	}{
		StepFlush:     {"x.flush", StatsSnapshot{Flushes: 1}, true, "flush: 4096 bytes in 5ms"},
		StepFlushNode: {"x.flushnode", StatsSnapshot{Flushes: 1}, false, "flush: 4096 bytes in 5ms"},
		StepAppend:    {"x.append", StatsSnapshot{Appends: 1}, true, "append: L2 +4096 bytes"},
		StepMerge:     {"x.merge", StatsSnapshot{Merges: 1}, true, "merge: L2 4096 bytes in 5ms"},
		StepCompact:   {"x.compact", StatsSnapshot{Merges: 1}, true, "merge: L2 4096 bytes in 5ms"},
		StepSplit:     {"x.split", StatsSnapshot{Splits: 1}, true, "split: L2 into 3 nodes, 4096 bytes"},
		StepMove:      {"x.move", StatsSnapshot{Moves: 1}, false, "move: L1 -> L2"},
		StepCombine:   {"x.combine", StatsSnapshot{Combines: 1}, false, "combine: L2"},
	} {
		t.Run(tc.span, func(t *testing.T) {
			var events []string
			clock := new(metrics.ManualClock)
			rec := trace.NewRecorder(8, clock)
			r := NewReporter("x", eventLog(&events), clock, rec)

			st := r.Begin(StepKind(kind), level)
			st.In(7)
			st.Read(1, 100)
			clock.Advance(5 * time.Millisecond)
			st.Out(8)
			st.Out(9)
			st.Done(bytes, count)
			clock.Advance(time.Millisecond) // after Done: in the span, not in the event
			st.End()

			if len(events) != 1 || events[0] != tc.event {
				t.Errorf("events %q, want exactly %q", events, tc.event)
			}
			got := r.Snapshot()
			if got.PerLevel[1].ReadBytes != 100 || got.TotalReadBytes() != 100 {
				t.Errorf("read bytes not on level 1 alone: %+v", got.PerLevel)
			}
			var wrote int64 // a kind that counts nothing per level leaves the level's row unmade
			if len(got.PerLevel) > level {
				wrote = got.PerLevel[level].WriteBytes
			}
			if wrote != 0 != tc.wrote || got.TotalFlushBytes() != wrote {
				t.Errorf("wrote %d bytes into level %d (total %d), kind writes: %v", wrote, level, got.TotalFlushBytes(), tc.wrote)
			}
			got.PerLevel, got.FlushBytes = nil, nil
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("counters %+v, want %+v", got, tc.want)
			}
			want := trace.Span{ID: 1, Name: tc.span, End: 6 * time.Millisecond, Level: level,
				Bytes: bytes, Count: count, In: []uint64{7}, Out: []uint64{8, 9}}
			if spans := rec.Snapshot(); len(spans) != 1 || !reflect.DeepEqual(spans[0], want) {
				t.Errorf("spans %+v, want %+v", spans, want)
			}
		})
	}
}

// TestStepWithoutDone pins what ending a step early means: an append (any
// kind announced at Done) that is abandoned leaves counters and events
// alone and is visible as a span only; a flush kind announces itself from
// End, so that flush events and the flush counter stay paired on error
// paths.
func TestStepWithoutDone(t *testing.T) {
	var events []string
	rec := trace.NewRecorder(8, nil)
	r := NewReporter("x", eventLog(&events), nil, rec)

	ap := r.Begin(StepAppend, 1)
	ap.In(7)
	ap.End()
	if got := r.Snapshot(); len(events) != 0 || len(got.PerLevel) != 0 || got.Flushes != 0 {
		t.Fatalf("an abandoned append reported %q, %+v", events, got)
	}
	if spans := rec.Snapshot(); len(spans) != 1 || spans[0].Name != "x.append" || len(spans[0].Out) != 0 {
		t.Fatalf("an abandoned append left spans %+v", spans)
	}

	for _, kind := range []StepKind{StepFlush, StepFlushNode} {
		events = events[:0]
		before := r.Snapshot().Flushes
		fl := r.Begin(kind, 0)
		fl.End()
		if got := r.Snapshot(); got.Flushes != before+1 || got.TotalFlushBytes() != 0 {
			t.Fatalf("kind %d ended without Done: counters %+v", kind, got)
		}
		if len(events) != 1 || events[0] != "flush: 0 bytes in 0s" {
			t.Fatalf("kind %d ended without Done: events %q", kind, events)
		}
	}
}

// TestStepsNest checks the nesting rule a flush cascade relies on: a step
// begun while another is open is its child, and ending it gives the place
// back.
func TestStepsNest(t *testing.T) {
	rec := trace.NewRecorder(8, nil)
	r := NewReporter("x", nil, nil, rec)
	flush := r.Begin(StepFlush, NoLevel)
	node := r.Begin(StepFlushNode, 1)
	move := r.Begin(StepMove, 2)
	move.End()
	merge := r.Begin(StepMerge, 2)
	merge.End()
	node.End()
	sibling := r.Begin(StepFlushNode, 1)
	sibling.End()
	flush.End()
	root := r.Begin(StepFlush, NoLevel)
	root.End()

	var got []string
	for _, sp := range rec.Snapshot() {
		got = append(got, fmt.Sprintf("%s %d<-%d", sp.Name, sp.Parent, sp.ID))
	}
	want := []string{"x.move 2<-3", "x.merge 2<-4", "x.flushnode 1<-2", "x.flushnode 1<-5", "x.flush 0<-1", "x.flush 0<-6"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans (parent<-id, in order of ending)\n\t%v\nwant\n\t%v", got, want)
	}
	if lvl := rec.Snapshot()[4].Level; lvl != -1 {
		t.Fatalf("a step at NoLevel recorded level %d", lvl)
	}
}

// TestDisabledStepAllocatesNothing is the zero-cost gate: with no recorder
// and no listener a step is counter arithmetic on the caller's stack.
func TestDisabledStepAllocatesNothing(t *testing.T) {
	r := NewReporter("x", nil, nil, nil)
	for kind := StepKind(0); kind < numSteps; kind++ {
		// A first run sizes the per-level table: growing it is not the
		// step's cost.
		run := func() {
			st := r.Begin(kind, 2)
			defer st.End()
			st.In(7)
			st.Read(1, 100)
			st.Out(8)
			st.Done(4096, 3)
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("kind %d: %v allocations per step with tracing and events off", kind, n)
		}
	}
	r.Wrote(2, 1)
}
