package iamdb

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iamdb/internal/metrics"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
)

// kvsepOpts scales the store down like smallOpts and turns on key-value
// separation with segments small enough that GC has several to choose
// from.
func kvsepOpts(e EngineKind, fs vfs.FS) *Options {
	o := smallOpts(e, fs)
	o.ValueThreshold = 64
	o.VlogSegmentSize = 4 * 1024
	return o
}

// bigVal builds a self-describing value above the separation threshold.
func bigVal(tag string, i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s-%04d.", tag, i)), 20)
}

// collectAll runs a store's GC step until it finds nothing to collect,
// under the scheduler's claim, as a worker or an inline writer would.
func collectAll(st *store) {
	st.bg.wake(stepGC)
	st.bg.runReady(stepGC, stepGC, false)
}

func TestKVSepThresholdAllEngines(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			db, err := Open("db", kvsepOpts(e, vfs.NewMemFS()))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			small := []byte("inline-sized")
			big := bigVal("big", 1)
			if err := db.Put([]byte("small"), small); err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("big"), big); err != nil {
				t.Fatal(err)
			}
			m := db.Metrics()
			if m.VLogAppends != 1 {
				t.Fatalf("VLogAppends = %d, want 1 (only the above-threshold value)", m.VLogAppends)
			}
			for _, c := range []struct {
				key  string
				want []byte
			}{{"small", small}, {"big", big}} {
				v, err := db.Get([]byte(c.key))
				if err != nil || !bytes.Equal(v, c.want) {
					t.Fatalf("Get(%s): %d bytes, %v", c.key, len(v), err)
				}
				v2, err := db.GetInto([]byte(c.key), nil)
				if err != nil || !bytes.Equal(v2, c.want) {
					t.Fatalf("GetInto(%s): %d bytes, %v", c.key, len(v2), err)
				}
			}
		})
	}
}

func TestKVSepIteratorsMixed(t *testing.T) {
	for _, e := range []EngineKind{IAM, LSA} {
		t.Run(e.String(), func(t *testing.T) {
			db, err := Open("db", kvsepOpts(e, vfs.NewMemFS()))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const n = 200
			want := make(map[string][]byte, n)
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("k%04d", i)
				var v []byte
				if i%3 == 0 {
					v = []byte(fmt.Sprintf("small-%04d", i))
				} else {
					v = bigVal("iter", i)
				}
				if err := db.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			it := db.NewIterator()
			defer it.Close()
			got := 0
			for it.First(); it.Valid(); it.Next() {
				if !bytes.Equal(it.Value(), want[string(it.Key())]) {
					t.Fatalf("forward: wrong value for %s", it.Key())
				}
				got++
			}
			if err := it.Err(); err != nil || got != n {
				t.Fatalf("forward scan: %d keys, %v", got, err)
			}
			got = 0
			for it.Last(); it.Valid(); it.Prev() {
				if !bytes.Equal(it.Value(), want[string(it.Key())]) {
					t.Fatalf("reverse: wrong value for %s", it.Key())
				}
				got++
			}
			if err := it.Err(); err != nil || got != n {
				t.Fatalf("reverse scan: %d keys, %v", got, err)
			}
			it.Seek([]byte("k0100"))
			if !it.Valid() || string(it.Key()) != "k0100" ||
				!bytes.Equal(it.Value(), want["k0100"]) {
				t.Fatalf("seek: %s, %v", it.Key(), it.Err())
			}
		})
	}
}

func TestKVSepSnapshotSeesOldValue(t *testing.T) {
	db, err := Open("db", kvsepOpts(IAM, vfs.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	old := bigVal("old", 1)
	if err := db.Put([]byte("k"), old); err != nil {
		t.Fatal(err)
	}
	snap := db.GetSnapshot()
	defer snap.Release()
	if err := db.Put([]byte("k"), bigVal("new", 2)); err != nil {
		t.Fatal(err)
	}
	v, err := snap.Get([]byte("k"))
	if err != nil || !bytes.Equal(v, old) {
		t.Fatalf("snapshot Get: %d bytes, %v", len(v), err)
	}
	it := snap.NewIterator()
	defer it.Close()
	it.First()
	if !it.Valid() || !bytes.Equal(it.Value(), old) {
		t.Fatalf("snapshot iterator: %v", it.Err())
	}
}

// TestKVSepGCReclaimsAndPreserves overwrites most of a separated
// working set so merges report dead log records, runs the collector to
// exhaustion, and checks that space came back without losing a value
// or resurrecting an overwritten or deleted one.  Inline, the writers
// that rotate already collect during the overwrites; the test relies on
// the merges of the final Flush leaving dead records that only the
// collection it drives by hand reclaims.
func TestKVSepGCReclaimsAndPreserves(t *testing.T) {
	fs := vfs.NewMemFS()
	o := kvsepOpts(IAM, fs)
	o.InlineBackground = true
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 40
	want := make(map[string][]byte)
	for round := 0; round < 6; round++ {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%04d", i)
			v := bigVal(fmt.Sprintf("r%d", round), i)
			if err := db.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
	}
	if err := db.Delete([]byte("k0007")); err != nil {
		t.Fatal(err)
	}
	delete(want, "k0007")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	vs := db.stores[0].vs
	before := vs.log.Stats()
	if before.DiscardBytes == 0 {
		t.Fatal("merges reported no dead value-log records; GC has no fuel")
	}
	collectAll(db.stores[0])
	after := db.Metrics()
	if after.VLogGCSegments == 0 {
		t.Fatal("collector rewrote no segments")
	}
	if after.VLogBytes >= before.Bytes {
		t.Fatalf("log did not shrink: %d -> %d bytes", before.Bytes, after.VLogBytes)
	}
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("after GC, Get(%s): %d bytes, %v", k, len(got), err)
		}
	}
	if _, err := db.Get([]byte("k0007")); err != ErrNotFound {
		t.Fatalf("GC resurrected a deleted key: %v", err)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKVSepReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open("db", kvsepOpts(LSA, fs))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%04d", i)
		want[k] = bigVal("re", i)
		if err := db.Put([]byte(k), want[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open("db", kvsepOpts(LSA, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k, v := range want {
		got, err := db2.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("after reopen, Get(%s): %d bytes, %v", k, len(got), err)
		}
	}
	if m := db2.Metrics(); m.VLogSegments == 0 {
		t.Fatal("reopened store reports no value-log segments")
	}
}

func TestKVSepCheckpointCarriesValues(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open("db", kvsepOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := make(map[string][]byte)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%04d", i)
		want[k] = bigVal("cp", i)
		if err := db.Put([]byte(k), want[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint("db2"); err != nil {
		t.Fatal(err)
	}
	cp, err := Open("db2", kvsepOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	for k, v := range want {
		got, err := cp.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("checkpoint Get(%s): %d bytes, %v", k, len(got), err)
		}
	}
}

// TestKVSepCheckpointDuringCollection copies a store while the collector
// is halfway through writing a rewritten record.  Every value-log change
// happens with commitMu held, the checkpoint's lock, so the copy waits
// for the record to be whole.  The write is released once the checkpoint
// returns or 200 ms pass: a checkpoint that copied the half record opens
// with a suspect value-log tail.
func TestKVSepCheckpointDuringCollection(t *testing.T) {
	gate := make(chan struct{})
	var armed, blocked atomic.Bool
	mem := vfs.NewMemFS()
	hfs := &hookFS{FS: mem, match: "db/", before: func(string) {}}
	hfs.writeAt = func(f vfs.File, name string, p []byte, off int64) (int, error) {
		if !strings.HasSuffix(name, vlog.SegmentSuffix) || len(p) <= vlog.HeaderSize || !armed.CompareAndSwap(true, false) {
			return f.WriteAt(p, off)
		}
		half := len(p) / 2
		if n, err := f.WriteAt(p[:half], off); err != nil {
			return n, err
		}
		blocked.Store(true)
		<-gate
		n, err := f.WriteAt(p[half:], off+int64(half))
		return half + n, err
	}
	o := kvsepOpts(IAM, hfs)
	// One memtable for the whole history, as in
	// TestGCRewriteCannotUndoOpenWrite: the collector runs only by hand.
	o.InlineBackground = true
	o.MemtableSize = 64 << 10
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	const keys = 60
	want := make(map[string][]byte)
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			if round == 2 && i%3 == 0 {
				continue
			}
			k := fmt.Sprintf("k%04d", i)
			want[k] = bigVal(fmt.Sprintf("r%d", round), i)
			if err := db.Put([]byte(k), want[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		collectAll(db.stores[0])
	}()
	waitFor(t, "a rewritten record's write to block halfway", blocked.Load)
	ckpt := make(chan error, 1)
	go func() { ckpt <- db.Checkpoint("copy") }()
	var ckErr error
	returned := false
	select {
	case ckErr = <-ckpt:
		returned = true
	case <-time.After(200 * time.Millisecond):
	}
	openGate()
	if !returned {
		ckErr = <-ckpt
	}
	wg.Wait()
	if ckErr != nil {
		t.Fatal(ckErr)
	}
	if db.Metrics().VLogGCSegments == 0 {
		t.Fatal("collector collected no segment")
	}

	cp, err := Open("copy", kvsepOpts(IAM, mem))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if n := cp.Metrics().CorruptionsDetected; n != 0 {
		t.Fatalf("the copy reports %d corruption(s): it caught a record half written", n)
	}
	for k, v := range want {
		got, err := cp.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("copy lost Put(%s): %.12q, %v", k, got, err)
		}
	}
}

func TestKVSepScrubCountsLog(t *testing.T) {
	db, err := Open("db", kvsepOpts(IAM, vfs.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 80; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bigVal("sc", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.VLogSegments == 0 || rep.VLogRecords < 80 || rep.VLogSuspect != 0 {
		t.Fatalf("scrub report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "vlog") {
		t.Fatalf("scrub summary omits the value log: %s", rep.String())
	}
}

func TestKVSepSharded(t *testing.T) {
	o := kvsepOpts(IAM, vfs.NewMemFS())
	o.Shards = 4
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := make(map[string][]byte)
	for i := 0; i < 120; i++ {
		// Spread across the default first-byte split points.
		k := fmt.Sprintf("%c-%04d", 'a'+byte(i%26), i)
		want[k] = bigVal("sh", i)
		if err := db.Put([]byte(k), want[k]); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("sharded Get(%s): %d bytes, %v", k, len(got), err)
		}
	}
	it := db.NewIterator()
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Value(), want[string(it.Key())]) {
			t.Fatalf("sharded scan: wrong value for %s", it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil || n != len(want) {
		t.Fatalf("sharded scan: %d keys, %v", n, err)
	}
	if m := db.Metrics(); m.VLogAppends != int64(len(want)) {
		t.Fatalf("sharded VLogAppends = %d, want %d", m.VLogAppends, len(want))
	}
}

func TestKVSepRottedValueDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open("db", kvsepOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), bigVal("rot", 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Damage one byte of the first record's payload, past the header.
	name := vlog.SegmentName("db", db.stores[0].vs.log.Head())
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	one := []byte{0}
	off := int64(vlog.HeaderSize) + 10
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := db.Get([]byte("k")); !IsCorruption(err) {
		t.Fatalf("rotted value read: %v", err)
	}
	if m := db.Metrics(); m.CorruptionsDetected == 0 {
		t.Fatal("detection not counted")
	}
}

// TestSeparatedPutAllocations: with no background step running, a value
// log costs an inline Put nothing and a separated Put exactly its own three
// allocations (the substituted op slice, its Batch, the pointer
// encoding).  The set of user keys a GC rewrite is checked against is
// only built for a commit group that carries a rewrite.
func TestSeparatedPutAllocations(t *testing.T) {
	measure := func(threshold int, val []byte) float64 {
		opts := smallOpts(IAM, vfs.NewMemFS())
		opts.MemtableSize = 64 << 20 // no flushes during measurement
		opts.ValueThreshold = threshold
		// Inline, and nothing rotates: no step runs during the measurement.
		opts.InlineBackground = true
		opts.Clock = new(metrics.ManualClock)
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		key := []byte("key-000042")
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(500, func() {
			if err := db.Put(key, val); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := make([]byte, 32), make([]byte, 256)
	if inline, plain := measure(64, small), measure(0, small); inline != plain {
		t.Errorf("inline Put beside a value log allocates %.2f per op, %.2f without one", inline, plain)
	}
	if separated, plain := measure(64, big), measure(0, big); separated > plain+3 {
		t.Errorf("separated Put allocates %.2f per op, want <= %.2f (an inline Put's + 3)", separated, plain+3)
	}
}
