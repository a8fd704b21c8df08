package iamdb

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iamdb/internal/engine"
	"iamdb/internal/histogram"
	"iamdb/internal/metrics"
	"iamdb/internal/shard"
	"iamdb/internal/tableset"
	"iamdb/internal/vfs"
)

// eventCounts tallies every listener callback so tests can compare the
// event stream against the engine's counters one-to-one.
type eventCounts struct {
	flush, appends, merges, moves, splits, combines atomic.Int64
	appendBytes, mergeBytes, splitBytes             atomic.Int64
	manifestEdits, tableCreated, tableDeleted       atomic.Int64
	walRotated                                      atomic.Int64
	stallBegin, stallEnd, stallNanos                atomic.Int64
}

func (c *eventCounts) listener() *EventListener {
	return &EventListener{
		FlushEnd: func(i FlushInfo) { c.flush.Add(1) },
		AppendEnd: func(i AppendInfo) {
			c.appends.Add(1)
			c.appendBytes.Add(i.Bytes)
		},
		MergeEnd: func(i MergeInfo) {
			c.merges.Add(1)
			c.mergeBytes.Add(i.Bytes)
		},
		MoveEnd: func(i MoveInfo) { c.moves.Add(1) },
		SplitEnd: func(i SplitInfo) {
			c.splits.Add(1)
			c.splitBytes.Add(i.Bytes)
		},
		CombineEnd:      func(i CombineInfo) { c.combines.Add(1) },
		WALRotated:      func(i WALRotationInfo) { c.walRotated.Add(1) },
		ManifestEdit:    func(i ManifestEditInfo) { c.manifestEdits.Add(1) },
		TableCreated:    func(i TableInfo) { c.tableCreated.Add(1) },
		TableDeleted:    func(i TableInfo) { c.tableDeleted.Add(1) },
		WriteStallBegin: func(i StallInfo) { c.stallBegin.Add(1) },
		WriteStallEnd: func(i StallInfo) {
			c.stallEnd.Add(1)
			c.stallNanos.Add(int64(i.Duration))
		},
	}
}

// TestEventStreamInvariants runs a deterministic MemFS workload and
// checks that the event stream and the metrics snapshot tell the same
// story: every flush/append/merge/move/split/combine is announced
// exactly once, stall events pair up with the cumulative stall
// counters, and level byte totals reconcile with the vfs IO deltas.
func TestEventStreamInvariants(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			var ev eventCounts
			io := new(vfs.IOStats)
			fs := vfs.NewStatsFS(vfs.NewMemFS(), io)
			opts := smallOpts(e, fs)
			opts.EventListener = ev.listener()
			opts.Clock = new(metrics.ManualClock)
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			val := make([]byte, 100)
			for i := range val {
				val[i] = byte('a' + i%26)
			}
			for i := 0; i < 3000; i++ {
				key := []byte(fmt.Sprintf("key-%06d", i*2654435761%3000))
				if err := db.Put(key, val); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				if err := db.Delete([]byte(fmt.Sprintf("key-%06d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}

			m := db.Metrics()
			pairs := []struct {
				name    string
				events  int64
				counter int64
			}{
				{"flush", ev.flush.Load(), m.Engine.Flushes},
				{"append", ev.appends.Load(), m.Engine.Appends},
				{"merge", ev.merges.Load(), m.Engine.Merges},
				{"move", ev.moves.Load(), m.Engine.Moves},
				{"split", ev.splits.Load(), m.Engine.Splits},
				{"combine", ev.combines.Load(), m.Engine.Combines},
				{"wal rotation", ev.walRotated.Load(), m.WALRotations},
				{"stall begin", ev.stallBegin.Load(), m.StallCount},
				{"stall end", ev.stallEnd.Load(), m.StallCount},
				{"stall time", ev.stallNanos.Load(), int64(m.StallTime)},
			}
			for _, p := range pairs {
				if p.events != p.counter {
					t.Errorf("%s: %d events but counter reads %d", p.name, p.events, p.counter)
				}
			}
			if m.Engine.Flushes == 0 {
				t.Error("workload produced no flushes")
			}
			if ev.manifestEdits.Load() == 0 || ev.tableCreated.Load() == 0 {
				t.Errorf("missing lifecycle events: %d manifest edits, %d tables created",
					ev.manifestEdits.Load(), ev.tableCreated.Load())
			}

			// Latent-fault counters: a clean workload must report no
			// damage, and a scrub pass must attribute its block reads.
			if m.CorruptionsDetected != 0 || m.TablesQuarantined != 0 || m.NoSpaceErrors != 0 {
				t.Errorf("clean workload reported faults: %d corruptions, %d quarantined, %d nospace",
					m.CorruptionsDetected, m.TablesQuarantined, m.NoSpaceErrors)
			}
			if m.ScrubBlocks != 0 {
				t.Errorf("scrub counter moved before any scrub: %d", m.ScrubBlocks)
			}
			rep, err := db.Scrub()
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if len(rep.Corruptions) != 0 {
				t.Errorf("scrub of a clean store found %d corruptions", len(rep.Corruptions))
			}
			if m2 := db.Metrics(); m2.ScrubBlocks == 0 || m2.CorruptionsDetected != 0 {
				t.Errorf("after clean scrub: %d blocks verified, %d corruptions detected",
					m2.ScrubBlocks, m2.CorruptionsDetected)
			}

			// Attributed per-level write bytes cover all append/merge/split
			// traffic (some paths, like child-less flushes, write without a
			// byte-carrying event, so events bound the counters from below).
			var levelWrites, levelReads int64
			for _, ls := range m.Engine.PerLevel {
				levelWrites += ls.WriteBytes
				levelReads += ls.ReadBytes
			}
			evBytes := ev.appendBytes.Load() + ev.mergeBytes.Load() + ev.splitBytes.Load()
			if evBytes > levelWrites {
				t.Errorf("event bytes %d exceed per-level write bytes %d", evBytes, levelWrites)
			}
			if levelWrites != m.Engine.TotalFlushBytes() {
				t.Errorf("per-level writes %d != TotalFlushBytes %d",
					levelWrites, m.Engine.TotalFlushBytes())
			}

			// Reconcile with the device: everything the engine claims to
			// have written (plus the WAL) must appear in the IO counters,
			// which also include manifest and table framing overhead.
			// Slack: table accounting budgets a fixed 24 bytes per
			// sequence for metadata fields the file stores as shorter
			// varints, so append-heavy engines overcount physical bytes
			// by up to ~21 bytes per sequence rewrite.
			const metaSlack = 16 << 10
			if got := io.Snapshot(); m.WALBytes+levelWrites > got.BytesWritten+metaSlack {
				t.Errorf("WAL %d + level writes %d exceed device writes %d (+%d slack)",
					m.WALBytes, levelWrites, got.BytesWritten, metaSlack)
			}
			if m.IO.BytesWritten == 0 || m.WALBytes == 0 {
				t.Errorf("expected device and WAL traffic, got IO=%d WAL=%d",
					m.IO.BytesWritten, m.WALBytes)
			}
			if levelReads < 0 {
				t.Errorf("negative level reads %d", levelReads)
			}
		})
	}
}

// TestMetricsStringTable is the golden-ish rendering test: a snapshot
// with known values must produce the per-level table rows and summary
// lines verbatim.
func TestMetricsStringTable(t *testing.T) {
	m := Metrics{
		Engine: engine.StatsSnapshot{
			PerLevel: []engine.LevelStats{
				{},
				{WriteBytes: 4 << 20, ReadBytes: 2 << 20, Appends: 7, Merges: 3, Moves: 2, Splits: 1, Combines: 1},
				{WriteBytes: 8 << 20, Merges: 5},
			},
			FlushBytes: []int64{0, 4 << 20, 8 << 20},
			Flushes:    42,
		},
		Levels: []tableset.LevelInfo{
			{Level: 1, Nodes: 3, Bytes: 6 << 20, Seqs: 5},
			// Level 3 has shape but no traffic yet.
			{Level: 3, Nodes: 1, Bytes: 1 << 20, Seqs: 1},
		},
		SpaceUsed:          7 << 20,
		UserBytes:          3 << 20,
		CacheHitRate:       0.5,
		CacheFills:         640,
		CacheEvictions:     128,
		MemtableBytes:      1 << 20,
		ImmutableMemtables: 1,
		WALNum:             9,
		WALBytes:           2 << 20,
		WALRotations:       4,
		IO:                 vfs.IOSnapshot{BytesWritten: 20 << 20, WriteOps: 100, BytesRead: 10 << 20, ReadOps: 50, Seeks: 25},
		StallCount:         3,
		StallTime:          1500 * time.Millisecond,
		Put:                histogram.Summary{Count: 10, Mean: time.Millisecond, P50: time.Millisecond, P99: 2 * time.Millisecond, P999: 2 * time.Millisecond, Max: 3 * time.Millisecond},
	}
	s := m.String()
	for _, want := range []string{
		"Level | Files  Seqs  Size(MB) | Write(MB)  Read(MB) | Appends  Merges  Moves  Splits  Combines",
		"    1 |     3     5       6.0 |       4.0       2.0 |       7       3      2       1         1",
		"    2 |     0     0       0.0 |       8.0       0.0 |       0       5      0       0         0",
		"    3 |     1     1       1.0 |       0.0       0.0 |       0       0      0       0         0",
		"total |     4     6       7.0 |      12.0       2.0 |       7       8      2       1         1",
		"Flushes: 42  UserWrite(MB): 3.0  WriteAmp: 4.00  SpaceUsed(MB): 7.0",
		"Memtable: 1.0 MB (+1 immutable)  WAL: file 000009, 2.0 MB written, 4 rotations",
		"Block cache hit rate: 50.0%, 640 fills, 128 evictions",
		"Write stalls: 3, total 1.5s",
		"Device IO: 20.0 MB written (100 ops), 10.0 MB read (50 ops), 25 seeks",
		"Latency put  n=10  mean=1ms  p50=1ms  p99=2ms  p99.9=2ms  max=3ms",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing line %q\ngot:\n%s", want, s)
		}
	}
	// Level 0 is all-zero in both views and must be elided.
	if strings.Contains(s, "\n    0 |") {
		t.Errorf("String() rendered the empty level 0:\n%s", s)
	}
}

// TestInstrumentationZeroAlloc proves the building blocks of the hot
// path — no-op listener dispatch, clock reads, histogram recording, the
// sequencer ticket every write takes — allocate nothing.
func TestInstrumentationZeroAlloc(t *testing.T) {
	var nilListener *EventListener
	l := nilListener.EnsureDefaults()
	clock := new(metrics.ManualClock)
	h := histogram.NewConcurrent()
	seqr := shard.NewSequencer(0)
	if n := testing.AllocsPerRun(1000, func() {
		start := clock.Now()
		l.FlushEnd(FlushInfo{Bytes: 1, Duration: clock.Now() - start})
		l.WriteStallBegin(StallInfo{Level: 1})
		l.WriteStallEnd(StallInfo{Level: 1, Duration: time.Millisecond})
		h.Record(clock.Now() - start)
		// The router's share of every write: one value ticket.
		seqr.Mu.Lock()
		t := seqr.Alloc(1)
		seqr.Mu.Unlock()
		seqr.End(t)
		seqr.WaitVisible(t.End)
	}); n != 0 {
		t.Fatalf("instrumentation path allocates %.1f per op, want 0", n)
	}
}

// TestHotPathAllocations is the allocation gate of the acceptance
// criteria: a disabled EventListener must add zero allocations per op
// on the Get/Put hot path, measured by comparing a DB opened with no
// listener against one with an explicit empty listener.
func TestHotPathAllocations(t *testing.T) {
	measure := func(l *EventListener) (get, put float64) {
		opts := smallOpts(IAM, vfs.NewMemFS())
		opts.MemtableSize = 64 << 20 // no flushes during measurement
		opts.EventListener = l
		opts.Clock = new(metrics.ManualClock)
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		key, val := []byte("key-000042"), make([]byte, 64)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		get = testing.AllocsPerRun(500, func() {
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		})
		put = testing.AllocsPerRun(500, func() {
			if err := db.Put(key, val); err != nil {
				t.Fatal(err)
			}
		})
		return get, put
	}
	nilGet, nilPut := measure(nil)
	empGet, empPut := measure(&EventListener{})
	if nilGet != empGet {
		t.Errorf("Get allocs differ: nil listener %.2f, empty listener %.2f", nilGet, empGet)
	}
	if nilPut != empPut {
		t.Errorf("Put allocs differ: nil listener %.2f, empty listener %.2f", nilPut, empPut)
	}
	// The 1-store router is the only write path: it must cost a Put no
	// allocation beyond the store's own (8 before the router existed;
	// TestCommitPathAllocs pins the count without the detector at 0).
	if nilPut > 8 {
		t.Errorf("1-store Put allocates %.2f per op, want <= 8", nilPut)
	}

	// A GetInto served from a flushed table with its block cached
	// allocates nothing: not the memtables' search keys, not the table's
	// seek target, readers or lock, not the level search.
	if raceEnabled {
		return // sync.Pool drops what is put back
	}
	opts := smallOpts(IAM, vfs.NewMemFS())
	opts.MemtableSize = 64 << 20
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key, val := []byte("key-000042"), make([]byte, 64)
	if err := db.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(val))
	if _, err := db.GetInto(key, dst); err != nil { // caches the block
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := db.GetInto(key, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("GetInto from a cached table block allocates %.2f per op, want 0", n)
	}
}
