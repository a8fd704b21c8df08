package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"iamdb/internal/metrics"
)

// TestSpanLifecycle drives a parent/child pair on a manual clock and
// checks timestamps, parenting, structured arguments and lineage all
// land in the snapshot.
func TestSpanLifecycle(t *testing.T) {
	mc := new(metrics.ManualClock)
	r := NewRecorder(8, mc)

	sp := r.Begin("merge")
	sp.SetLevel(2)
	sp.SetBytes(4096)
	sp.AddIn(7)
	sp.AddIn(8)
	mc.Advance(time.Millisecond)

	child := sp.Child("merge.write")
	child.SetCount(3)
	mc.Advance(2 * time.Millisecond)
	child.End()

	sp.AddOut(9)
	mc.Advance(time.Millisecond)
	sp.End()

	spans := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Recorded at End: the child finishes first.
	c, p := spans[0], spans[1]
	if c.Name != "merge.write" || p.Name != "merge" {
		t.Fatalf("span order/names wrong: %q then %q", c.Name, p.Name)
	}
	if c.Parent != p.ID {
		t.Errorf("child parent = %d, want %d", c.Parent, p.ID)
	}
	if p.Parent != 0 {
		t.Errorf("root span parent = %d, want 0", p.Parent)
	}
	if p.Start != 0 || p.End != 4*time.Millisecond {
		t.Errorf("parent window = [%v, %v], want [0, 4ms]", p.Start, p.End)
	}
	if c.Start != time.Millisecond || c.End != 3*time.Millisecond {
		t.Errorf("child window = [%v, %v], want [1ms, 3ms]", c.Start, c.End)
	}
	if p.Level != 2 || p.Bytes != 4096 {
		t.Errorf("parent args level=%d bytes=%d", p.Level, p.Bytes)
	}
	if c.Level != -1 {
		t.Errorf("child level = %d, want -1 (unset)", c.Level)
	}
	if c.Count != 3 {
		t.Errorf("child count = %d, want 3", c.Count)
	}
	if len(p.In) != 2 || p.In[0] != 7 || p.In[1] != 8 {
		t.Errorf("parent in = %v, want [7 8]", p.In)
	}
	if len(p.Out) != 1 || p.Out[0] != 9 {
		t.Errorf("parent out = %v, want [9]", p.Out)
	}
}

// TestBeginAt pins cross-structure parenting: a span opened under an
// explicit parent ID records that ID, and parent 0 means root.
func TestBeginAt(t *testing.T) {
	r := NewRecorder(4, nil)
	root := r.Begin("cascade")
	leaf := r.BeginAt("cascade.flush", root.ID())
	leaf.End()
	root.End()
	spans := r.Snapshot()
	if spans[0].Parent != root.ID() {
		t.Errorf("BeginAt parent = %d, want %d", spans[0].Parent, root.ID())
	}
	free := r.BeginAt("orphan", 0)
	free.End()
	spans = r.Snapshot()
	if last := spans[len(spans)-1]; last.Parent != 0 {
		t.Errorf("parent-0 span recorded parent %d", last.Parent)
	}
}

// TestRingWraparound fills a small ring past capacity and checks the
// oldest spans fall off while Len, Dropped and snapshot order stay
// coherent.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4, nil)
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i, n := range names {
		sp := r.Begin(n)
		sp.SetCount(int64(i))
		sp.End()
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	spans := r.Snapshot()
	want := []string{"d", "e", "f", "g"}
	for i, w := range want {
		if spans[i].Name != w {
			t.Errorf("snapshot[%d] = %q, want %q", i, spans[i].Name, w)
		}
	}
	// IDs stay monotonic across the wrap.
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Errorf("IDs not monotonic: %d then %d", spans[i-1].ID, spans[i].ID)
		}
	}
}

// TestSnapshotPartialRing covers the not-yet-full ring: Len, zero
// Dropped, and snapshot length match the recorded count.
func TestSnapshotPartialRing(t *testing.T) {
	r := NewRecorder(16, nil)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty recorder snapshot has %d spans", len(got))
	}
	for i := 0; i < 3; i++ {
		sp := r.Begin("x")
		sp.End()
	}
	if got := r.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
	if got := r.Snapshot(); len(got) != 3 {
		t.Errorf("snapshot has %d spans, want 3", len(got))
	}
}

// TestUnendedSpanAbsent pins the record-at-End contract: a span still
// open (or abandoned on an error path) never appears in exports.
func TestUnendedSpanAbsent(t *testing.T) {
	r := NewRecorder(8, nil)
	open := r.Begin("never-ended")
	_ = open
	done := r.Begin("done")
	done.End()
	spans := r.Snapshot()
	if len(spans) != 1 || spans[0].Name != "done" {
		t.Fatalf("snapshot = %+v, want just the ended span", spans)
	}
}

// TestWriteJSONLines pins the JSONL wire form byte-for-byte: elided
// zero fields, level present only when set, lineage arrays.
func TestWriteJSONLines(t *testing.T) {
	mc := new(metrics.ManualClock)
	r := NewRecorder(8, mc)
	sp := r.Begin("compact")
	sp.SetLevel(1)
	sp.SetBytes(2048)
	sp.AddIn(3)
	sp.AddOut(5)
	mc.Advance(1500 * time.Nanosecond)
	sp.End()
	plain := r.Begin("get")
	plain.End()

	var b strings.Builder
	if err := r.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"id":1,"name":"compact","start_ns":0,"dur_ns":1500,"level":1,"bytes":2048,"in":[3],"out":[5]}
{"id":2,"name":"get","start_ns":1500,"dur_ns":0}
`
	if b.String() != want {
		t.Errorf("JSONL mismatch:\ngot:  %s\nwant: %s", b.String(), want)
	}
}

// TestWriteChromeTrace pins the Chrome trace-event form: complete X
// events, microsecond timestamps, per-level track assignment.
func TestWriteChromeTrace(t *testing.T) {
	mc := new(metrics.ManualClock)
	r := NewRecorder(8, mc)
	sp := r.Begin("merge")
	sp.SetLevel(2)
	mc.Advance(3 * time.Microsecond)
	sp.End()
	other := r.Begin("stall")
	other.End()

	var b strings.Builder
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	want := `[
{"name":"merge","cat":"iamdb","ph":"X","ts":0,"dur":3,"pid":1,"tid":4,"args":{"id":1,"level":2}},
{"name":"stall","cat":"iamdb","ph":"X","ts":3,"dur":0,"pid":1,"tid":1,"args":{"id":2}}
]
`
	if b.String() != want {
		t.Errorf("chrome trace mismatch:\ngot:  %s\nwant: %s", b.String(), want)
	}
}

// TestNilRecorder proves the whole disabled surface is nil-safe and the
// inert Ctx reports itself as such.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	sp := r.Begin("noop")
	if sp.ID() != 0 {
		t.Error("nil recorder Begin returned a live Ctx")
	}
	child := sp.Child("noop.child")
	sp.SetLevel(1)
	sp.SetBytes(1)
	sp.SetCount(1)
	sp.AddIn(1)
	sp.AddOut(1)
	child.End()
	sp.End()
	if r.Snapshot() != nil || r.Len() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder holds state")
	}
	var b strings.Builder
	if err := r.WriteJSONLines(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil recorder JSONL: err=%v out=%q", err, b.String())
	}
}

// TestDisabledPathZeroAlloc is the zero-cost gate for the nil
// recorder: the full span lifecycle — begin, child, every setter,
// lineage appends, end — must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		sp := r.Begin("op")
		child := sp.Child("op.step")
		child.SetBytes(1)
		child.End()
		sp.SetLevel(3)
		sp.SetCount(7)
		sp.AddIn(1)
		sp.AddOut(2)
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled trace path allocates %.1f per op, want 0", n)
	}
}

// TestDefaults: capacity ≤ 0 falls back to 4096 slots, a nil clock to
// NopClock (zero timestamps rather than garbage).
func TestDefaults(t *testing.T) {
	r := NewRecorder(0, nil)
	if len(r.ring) != 4096 {
		t.Errorf("default capacity = %d, want 4096", len(r.ring))
	}
	sp := r.Begin("x")
	sp.End()
	if got := r.Snapshot()[0]; got.Start != 0 || got.End != 0 {
		t.Errorf("nop clock span = [%v, %v], want zeros", got.Start, got.End)
	}
}

// TestConcurrentRecording hammers one recorder from many goroutines —
// meaningful under -race — and checks the accounting stays exact.
func TestConcurrentRecording(t *testing.T) {
	const workers, perWorker = 8, 200
	r := NewRecorder(64, new(metrics.ManualClock))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := r.Begin("op")
				sp.SetCount(int64(i))
				child := sp.Child("op.step")
				child.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != 64 {
		t.Errorf("Len = %d, want full ring 64", got)
	}
	total := uint64(workers * perWorker * 2)
	if got := r.Dropped(); got != total-64 {
		t.Errorf("Dropped = %d, want %d", got, total-64)
	}
	for _, sp := range r.Snapshot() {
		if sp.Name != "op" && sp.Name != "op.step" {
			t.Errorf("unexpected span %q", sp.Name)
		}
	}
}
