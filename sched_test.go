package iamdb

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
)

// goroutinesBackTo waits (briefly: a worker is still returning after its
// Done) for the goroutine count to fall back to n.
func goroutinesBackTo(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerRunsEveryStep drives a store whose workers have all three
// kinds of step to take — a LevelDB engine compacts, a value log collects
// — with two writers overwriting, and checks that each kind ran and that
// Close joins every worker.  The gate runs it repeatedly under -race.
func TestSchedulerRunsEveryStep(t *testing.T) {
	before := runtime.NumGoroutine()
	o := kvsepOpts(LevelDB, vfs.NewMemFS())
	o.CompactionThreads = 1
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%03d", i%100)), bigVal(fmt.Sprintf("w%d", w), i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "a value-log collection", func() bool { return db.Metrics().VLogGCSegments > 0 })
	m := db.Metrics()
	if m.Engine.Flushes == 0 || m.Engine.Merges == 0 {
		t.Errorf("flushes %d, merges %d: a drain or compaction step never ran", m.Engine.Flushes, m.Engine.Merges)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	goroutinesBackTo(t, before)
}

// TestWorkersOnePerKindOfStep: a claim lets one worker hold each kind of
// step, so however many CompactionThreads ask for, a store starts a
// worker per kind it has — drain and compaction, and value-log GC with a
// value log — and none that would only ever wait.
func TestWorkersOnePerKindOfStep(t *testing.T) {
	for _, c := range []struct {
		name      string
		threshold int
		perStore  int
	}{{"inline values", 0, 2}, {"value log", 64, 3}} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			o := kvsepOpts(IAM, vfs.NewMemFS())
			o.ValueThreshold = c.threshold
			o.CompactionThreads = 8
			o.Shards = 2
			db, err := Open("db", o)
			if err != nil {
				t.Fatal(err)
			}
			if n := runtime.NumGoroutine() - before; n != 2*c.perStore {
				t.Errorf("two stores started %d goroutines, want %d", n, 2*c.perStore)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			goroutinesBackTo(t, before)
		})
	}
}

// TestInlineStoreCollectsWithoutGoroutines: inline, a store with a value
// log starts no goroutine, and the writers that rotate the memtable
// reclaim dead segments during an overwrite pass — no Flush, no
// collection driven by hand.
func TestInlineStoreCollectsWithoutGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	o := kvsepOpts(IAM, vfs.NewMemFS())
	o.InlineBackground = true
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("inline Open started %d goroutines", n-before)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bigVal(fmt.Sprintf("r%d", round), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("inline writes left %d goroutines running", n-before)
	}
	if m := db.Metrics(); m.VLogGCSegments == 0 {
		t.Fatal("the overwrite pass reclaimed no segment")
	}
}

// TestPanickingStepKeepsItsMessage: a step that panics unwinds out of
// runReady with its own panic value, so a recover above it sees it,
// rather than dying on an unlock of the scheduler's mutex.
func TestPanickingStepKeepsItsMessage(t *testing.T) {
	o := smallOpts(IAM, vfs.NewMemFS())
	o.InlineBackground = true
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bg := db.stores[0].bg
	bg.steps[stepCompact] = func() (bool, error) { panic("step exploded") }
	bg.wake(stepCompact)
	got := func() (v any) {
		defer func() { v = recover() }()
		bg.runReady(stepCompact, stepCompact, false)
		return nil
	}()
	if got != "step exploded" {
		t.Fatalf("recovered %v, want the step's panic", got)
	}
}

// bgErrorOps records the Op of every BackgroundError event.
type bgErrorOps struct {
	mu  sync.Mutex
	ops []string
}

func (b *bgErrorOps) listener() *EventListener {
	return &EventListener{BackgroundError: func(i BackgroundErrorInfo) {
		b.mu.Lock()
		b.ops = append(b.ops, i.Op)
		b.mu.Unlock()
	}}
}

func (b *bgErrorOps) saw(op string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, o := range b.ops {
		if o == op {
			return true
		}
	}
	return false
}

// TestStalledWriterNotesCompactionError: a writer in a hard stall runs
// compaction steps itself, and one that fails must be reported like any
// background fault, not dropped.  Thirteen L0 tables are stacked with
// compaction out of reach (a trigger of 100), then the store reopens
// with the default trigger of 4 — a hard stall at 12 — inline, so no
// step runs before the first Put, and table writes fail.
func TestStalledWriterNotesCompactionError(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.NewMemFS())
	o := smallOpts(LevelDB, ffs)
	o.InlineBackground = true
	o.L0CompactTrigger = 100
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var seen bgErrorOps
	o.L0CompactTrigger = 0
	o.EventListener = seen.listener()
	db, err = Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if lvl := db.stores[0].eng.StallLevel(); lvl != 2 {
		t.Fatalf("stall level %d after stacking L0, want 2", lvl)
	}
	ffs.SetSticky(true)
	ffs.FailAfterPath(vfs.FaultWrite, ".mst", 0)
	if err := db.Put([]byte("stalled"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !seen.saw("compact") {
		t.Fatal("the stalled writer's failed compaction fired no BackgroundError")
	}
}

// TestFailedCollectionIsNoted: a collection that cannot append its
// rewrites (the value log's device fails) is a fault of the GC step —
// reported as one — and the next collection after the fault clears heals
// the store.
func TestFailedCollectionIsNoted(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.NewMemFS())
	var seen bgErrorOps
	o := kvsepOpts(IAM, ffs)
	// Inline, with one memtable for the whole history: nothing rotates,
	// so only the collections below run the GC step.
	o.InlineBackground = true
	o.MemtableSize = 64 << 10
	o.BgBackoff = func(int) bool { return false }
	o.EventListener = seen.listener()
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Round two's segments end up two-thirds dead and still hold live
	// records, which the collector must rewrite.
	for round := 0; round < 3; round++ {
		for i := 0; i < 60; i++ {
			if round == 2 && i%3 == 0 {
				continue
			}
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bigVal(fmt.Sprintf("r%d", round), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.stores[0]
	ffs.SetSticky(true)
	ffs.FailAfterPath(vfs.FaultWrite, vlog.SegmentSuffix, 0)
	collectAll(st)
	if !seen.saw("gc") {
		t.Fatal("failed collection fired no BackgroundError")
	}
	st.mu.Lock()
	bgErr := st.bgErr
	st.mu.Unlock()
	if !errors.Is(bgErr, vfs.ErrInjected) {
		t.Fatalf("latched background error %v, want the injected fault", bgErr)
	}

	ffs.Clear()
	ffs.SetSticky(false)
	collected := db.Metrics().VLogGCSegments
	collectAll(st)
	if db.Metrics().VLogGCSegments == collected {
		t.Fatal("no collection after the fault cleared")
	}
	st.mu.Lock()
	bgErr = st.bgErr
	st.mu.Unlock()
	if bgErr != nil {
		t.Fatalf("a successful collection left the store degraded: %v", bgErr)
	}
	for i := 0; i < 60; i++ {
		want := bigVal("r2", i)
		if i%3 == 0 {
			want = bigVal("r1", i)
		}
		if got, err := db.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil || string(got) != string(want) {
			t.Fatalf("Get(k%04d) after the collections: %.12q, %v", i, got, err)
		}
	}
}
