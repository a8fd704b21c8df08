package iamdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
)

// hookFS wraps an FS for the router tests: files whose path contains
// match run before(name) ahead of every sequential Write (a WAL append)
// and every ReadAt, hand every WriteAt (a table block, a value-log
// record) to writeAt and every Sync to sync when set, and — like an operating-system
// file — refuse reads once closed.  MemFS handles keep reading after
// Close and Remove, which would hide exactly the window the Get-vs-GC
// test is about.
type hookFS struct {
	vfs.FS
	match   string
	before  func(name string)
	writeAt func(f vfs.File, name string, p []byte, off int64) (int, error)
	sync    func(f vfs.File, name string) error
}

type hookFile struct {
	vfs.File
	fs     *hookFS
	name   string
	closed atomic.Bool
}

func (h *hookFS) wrap(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil || !strings.Contains(name, h.match) {
		return f, err
	}
	return &hookFile{File: f, fs: h, name: name}, nil
}

func (h *hookFS) Create(name string) (vfs.File, error) {
	f, err := h.FS.Create(name)
	return h.wrap(name, f, err)
}

func (h *hookFS) Open(name string) (vfs.File, error) {
	f, err := h.FS.Open(name)
	return h.wrap(name, f, err)
}

func (f *hookFile) Write(p []byte) (int, error) {
	f.fs.before(f.name)
	return f.File.Write(p)
}

func (f *hookFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.writeAt == nil {
		return f.File.WriteAt(p, off)
	}
	return f.fs.writeAt(f.File, f.name, p, off)
}

func (f *hookFile) Sync() error {
	if f.fs.sync == nil {
		return f.File.Sync()
	}
	return f.fs.sync(f.File, f.name)
}

func (f *hookFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.before(f.name)
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	return f.File.ReadAt(p, off)
}

func (f *hookFile) Close() error {
	f.closed.Store(true)
	return f.File.Close()
}

// waitFor polls cond until it holds; the conditions below are all
// monotone store counters, so this waits on the event, not on time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestHorizonRespectsLaggingWatermark is the deterministic form of the
// cross-shard hammer's failure: while an earlier allocation is still
// open the watermark lags, and a store that flushes and merges records
// above it must keep the version readers at the watermark still see.
// Shard 0's WAL append is held shut with one allocation open; shard 1
// then overwrites one key through many rotations, flushes and merges
// (each writer commits, runs the inline pipeline, and blocks behind the
// stuck allocation).  Every read at the stuck watermark must return the
// old value, and the newest one once the gate opens.
func TestHorizonRespectsLaggingWatermark(t *testing.T) {
	for _, e := range []EngineKind{IAM, LevelDB} {
		t.Run(e.String(), func(t *testing.T) {
			gate := make(chan struct{})
			var armed, blocked atomic.Bool
			hfs := &hookFS{FS: vfs.NewMemFS(), match: "shard-000/"}
			hfs.before = func(name string) {
				if strings.HasSuffix(name, ".log") && armed.Load() {
					blocked.Store(true)
					<-gate
				}
			}
			o := smallOpts(e, hfs)
			o.Shards = 2
			o.MemtableSize = 2 << 10
			o.FileSize = 1 << 10
			o.LevelSizeBase = 4 << 10
			o.InlineBackground = true
			db, err := Open("db", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			keyA, keyB := []byte("\x10a"), []byte("\x90b")
			if err := db.Put(keyB, []byte("old")); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			put := func(k, v []byte) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := db.Put(k, v); err != nil {
						t.Errorf("put %q: %v", k, err)
					}
				}()
			}
			armed.Store(true)
			put(keyA, []byte("stuck"))
			waitFor(t, "shard 0's WAL append to block", blocked.Load)
			stuck := db.seqr.Visible()

			const writers = 80
			newest := func(i int) []byte {
				return append([]byte(fmt.Sprintf("new-%03d-", i)), make([]byte, 300)...)
			}
			for i := 1; i <= writers; i++ {
				put(keyB, newest(i))
				// One writer at a time, so allocation order is launch order.
				waitFor(t, "shard 1 commit", func() bool {
					return db.ShardMetrics(1).CommitBatches >= int64(1+i)
				})
			}
			waitFor(t, "shard 1's inline pipeline", func() bool {
				m := db.ShardMetrics(1)
				return m.ImmutableMemtables == 0 && m.WALRotations >= 5
			})
			if m := db.ShardMetrics(1); m.Engine.Merges+m.Engine.Appends == 0 {
				t.Fatalf("shard 1 never compacted: %+v", m.Engine)
			}
			if got := db.seqr.Visible(); got != stuck {
				t.Fatalf("watermark moved from %d to %d behind an open allocation", stuck, got)
			}

			// All three kinds of view, taken at the stuck watermark.
			if v, err := db.Get(keyB); err != nil || string(v) != "old" {
				t.Errorf("Get at stuck watermark: %q, %v", v, err)
			}
			it := db.NewIterator()
			n := 0
			for it.First(); it.Valid(); it.Next() {
				if !bytes.Equal(it.Key(), keyB) || string(it.Value()) != "old" {
					t.Errorf("iterator at stuck watermark saw %q=%.20q", it.Key(), it.Value())
				}
				n++
			}
			if err := it.Err(); err != nil || n != 1 {
				t.Errorf("iterator at stuck watermark: %d keys, %v", n, err)
			}
			it.Close()
			snap := db.GetSnapshot()
			if v, err := snap.Get(keyB); err != nil || string(v) != "old" {
				t.Errorf("snapshot at stuck watermark: %q, %v", v, err)
			}

			close(gate)
			wg.Wait()
			if v, err := db.Get(keyB); err != nil || !bytes.Equal(v, newest(writers)) {
				t.Errorf("Get after the gate opened: %.20q, %v", v, err)
			}
			if v, err := db.Get(keyA); err != nil || string(v) != "stuck" {
				t.Errorf("Get(keyA) after the gate opened: %q, %v", v, err)
			}
			// The snapshot still pins its cut through further merges.
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if v, err := snap.Get(keyB); err != nil || string(v) != "old" {
				t.Errorf("snapshot after compaction: %q, %v", v, err)
			}
			snap.Release()
		})
	}
}

// TestCommitQueueIsSequenceOrdered pins the rule the read path and the
// value-log collector both stand on: a write's sequence range and its
// seats in the stores' commit queues are taken in one step, so every
// store commits in sequence order however writers interleave.  With
// every leader held off, concurrent single-store and cross-store writes
// must leave each queue sorted by sequence, and once released each store
// must commit its whole queue as one group.
func TestCommitQueueIsSequenceOrdered(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := smallOpts(IAM, vfs.NewMemFS())
			o.Shards = shards
			db, err := Open("db", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, st := range db.stores {
				st.commitMu.Lock()
			}
			const writers = 64
			var wg sync.WaitGroup
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var b Batch
					b.Put([]byte(fmt.Sprintf("\x10k%03d", i)), []byte("lo"))
					if i%2 == 0 {
						b.Put([]byte(fmt.Sprintf("\x90k%03d", i)), []byte("hi"))
					}
					if err := db.Write(&b); err != nil {
						t.Errorf("write %d: %v", i, err)
					}
				}(i)
			}
			want := writers
			if shards == 2 {
				want += writers / 2 // a cross-store batch sits in both queues
			}
			queued := func() (n int) {
				db.seqr.Mu.Lock()
				defer db.seqr.Mu.Unlock()
				for _, st := range db.stores {
					n += len(st.pendingQ)
				}
				return n
			}
			waitFor(t, "every write to be queued", func() bool { return queued() == want })
			db.seqr.Mu.Lock()
			queues := make([]int, len(db.stores))
			for i, st := range db.stores {
				queues[i] = len(st.pendingQ)
				for j := 1; j < len(st.pendingQ); j++ {
					if st.pendingQ[j-1].base >= st.pendingQ[j].base {
						t.Errorf("store %d queue: seq %d ahead of seq %d",
							i, st.pendingQ[j-1].base, st.pendingQ[j].base)
					}
				}
			}
			db.seqr.Mu.Unlock()
			for _, st := range db.stores {
				st.commitMu.Unlock()
			}
			wg.Wait()
			// Group commit: the first writer to take a store's commitMu
			// leads, and commits everything queued there as one group.
			for i, st := range db.stores {
				if g, b := st.commitGroups.Load(), st.commitBatches.Load(); g != 1 || b != int64(queues[i]) {
					t.Errorf("store %d: %d batches queued, committed as %d groups of %d batches in all; want one group",
						i, queues[i], g, b)
				}
			}
			it := db.NewIterator()
			defer it.Close()
			n := 0
			for it.First(); it.Valid(); it.Next() {
				n++
			}
			if err := it.Err(); err != nil || n != writers+writers/2 {
				t.Fatalf("scan after release: %d keys, %v", n, err)
			}
		})
	}
}

// TestGCRewriteCannotUndoOpenWrite is the user-visible form of that
// rule.  A cross-shard batch overwrites every separated key of shard 1
// but is held in shard 0's WAL append, so its allocation is open and
// its shard-1 half uncommitted when the collector rewrites those keys'
// old values under a later sequence.  The rewrite must lose: were it
// checked against a state without the batch and committed first, the
// acknowledged overwrite would land beneath it and the old values come
// back.  And a rewrite that loses writes nothing: the commit leader
// appends only the rewrites that survive its check, so no rewritten
// record reaches the value log while the collection runs (the group the
// collector leads does append the open batch's own values).
func TestGCRewriteCannotUndoOpenWrite(t *testing.T) {
	gate := make(chan struct{})
	var armed, blocked atomic.Bool
	var counting atomic.Bool
	var rewriteBytes atomic.Int64
	hfs := &hookFS{FS: vfs.NewMemFS(), match: "db/"}
	hfs.before = func(name string) {
		if strings.Contains(name, "shard-000/") && strings.HasSuffix(name, ".log") && armed.Load() {
			blocked.Store(true)
			<-gate
		}
	}
	hfs.writeAt = func(f vfs.File, name string, p []byte, off int64) (int, error) {
		if counting.Load() && strings.HasSuffix(name, vlog.SegmentSuffix) {
			if _, val, _, err := vlog.DecodeRecord(p); err == nil && !bytes.HasPrefix(val, []byte("final-")) {
				rewriteBytes.Add(int64(len(p)))
			}
		}
		return f.WriteAt(p, off)
	}
	o := kvsepOpts(IAM, hfs)
	o.Shards = 2
	// Inline, with one memtable for the whole history: nothing rotates, so
	// the GC step never runs on a writer and the collector is driven by
	// hand; the drops that fuel it come from CompactAll's flush.
	o.InlineBackground = true
	o.MemtableSize = 64 << 10
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // a failure below must not leave Close waiting on the gate
	// Two rounds over every key, then a third over two keys in three and
	// a full compaction: round two's segments end up two-thirds dead, so
	// the collector picks them and has live records to rewrite.
	const keys = 60
	key := func(i int) []byte { return []byte(fmt.Sprintf("\x90k%04d", i)) }
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			if round == 2 && i%3 == 0 {
				continue
			}
			if err := db.Put(key(i), bigVal(fmt.Sprintf("r%d", round), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	st := db.stores[1]

	var b Batch
	b.Put([]byte("\x10a"), []byte("stuck"))
	for i := 0; i < keys; i++ {
		b.Put(key(i), bigVal("final", i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	armed.Store(true)
	go func() {
		defer wg.Done()
		if err := db.Write(&b); err != nil {
			t.Errorf("batch: %v", err)
		}
	}()
	waitFor(t, "shard 0's WAL append to block", blocked.Load)

	committed := st.commitBatches.Load()
	wg.Add(1)
	go func() {
		defer wg.Done()
		counting.Store(true)
		collectAll(st)
		counting.Store(false)
	}()
	waitFor(t, "the collector's first rewrite to commit", func() bool {
		return st.commitBatches.Load() > committed
	})
	openGate()
	wg.Wait()

	if n := st.vs.gcRewrites.Load(); n == 0 {
		t.Fatal("collector rewrote no record")
	}
	if n := rewriteBytes.Load(); n != 0 {
		t.Fatalf("%d bytes of rewrites that lost to the open batch reached the value log", n)
	}
	for i := 0; i < keys; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, bigVal("final", i)) {
			t.Fatalf("acknowledged Put(%q) lost: got %.12q, %v", key(i), got, err)
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGetSurvivesValueLogGC covers the latest-view Get racing the
// value-log collector: Get holds no pin, so between its tree read and
// its log read the collector may rewrite the value, flush, and delete
// the segment the pointer names.  The read hook runs exactly that in
// the window.  A collected pointer must yield the (rewritten) value and
// count nothing; a truncated segment — real damage, the pointer is
// still current — must still surface as typed corruption.
func TestGetSurvivesValueLogGC(t *testing.T) {
	for _, mode := range []string{"collected", "truncated"} {
		t.Run(mode, func(t *testing.T) {
			mem := vfs.NewMemFS()
			hfs := &hookFS{FS: mem, match: vlog.SegmentSuffix, before: func(string) {}}
			var detections atomic.Int64
			o := kvsepOpts(IAM, hfs)
			o.VlogSegmentSize = 4 << 10
			// Inline, and every key is written once: no merge drops a
			// pointer, so the GC step finds nothing and the hook is the
			// collector.
			o.InlineBackground = true
			o.EventListener = &EventListener{
				CorruptionDetected: func(CorruptionInfo) { detections.Add(1) },
			}
			db, err := Open("db", o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			key, want := []byte("k"), bigVal("gc", 1)
			if err := db.Put(key, want); err != nil {
				t.Fatal(err)
			}
			// Roll the head past segment 1 so it is sealed and collectable.
			vs := db.stores[0].vs
			for i := 0; vs.log.Head() == 1; i++ {
				if err := db.Put([]byte(fmt.Sprintf("fill%03d", i)), bigVal("fill", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			seg1 := vlog.SegmentName("db", 1)
			var fired atomic.Bool
			hfs.before = func(name string) {
				if name != seg1 || !fired.CompareAndSwap(false, true) {
					return
				}
				if mode == "collected" {
					if err := vs.collect(1); err != nil {
						t.Errorf("collect: %v", err)
					}
					return
				}
				if err := mem.Truncate(seg1, int64(vlog.HeaderSize)); err != nil {
					t.Errorf("truncate: %v", err)
				}
			}
			got, err := db.Get(key)
			if !fired.Load() {
				t.Fatal("the read hook never fired: Get did not read segment 1")
			}
			m := db.Metrics()
			if mode == "collected" {
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get across a collection: %d bytes, %v", len(got), err)
				}
				if mem.Exists(seg1) || m.VLogGCSegments != 1 {
					t.Fatalf("segment 1 was not collected (gc'd %d)", m.VLogGCSegments)
				}
				if m.CorruptionsDetected != 0 || detections.Load() != 0 {
					t.Fatalf("benign race counted as corruption: metric %d, events %d",
						m.CorruptionsDetected, detections.Load())
				}
				return
			}
			if !IsCorruption(err) {
				t.Fatalf("Get of a truncated segment: %v, want typed corruption", err)
			}
			if m.CorruptionsDetected != 1 || detections.Load() != 1 {
				t.Fatalf("real damage: metric %d, events %d, want 1 and 1",
					m.CorruptionsDetected, detections.Load())
			}
		})
	}
}

// equivalenceTranscript drives one seeded history — puts, deletes,
// cross-range batches, snapshot take/read/release, forward and reverse
// scans with seeks, flush, close/reopen — and returns every user-visible
// result as one line per observation.
func equivalenceTranscript(t *testing.T, o *Options) []string {
	t.Helper()
	open := func() *DB {
		db, err := Open("db", o)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	defer func() { db.Close() }()
	rng := rand.New(rand.NewSource(1405))
	key := func() []byte {
		return append([]byte{byte(rng.Intn(256))}, fmt.Sprintf("k%03d", rng.Intn(300))...)
	}
	val := func() []byte {
		v := make([]byte, 8+rng.Intn(150)) // straddles ValueThreshold 64
		rng.Read(v)
		return v
	}
	var out []string
	see := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	type snapAt struct {
		s  *Snapshot
		op int
	}
	var snaps []snapAt
	scan := func(tag string, it *Iterator) {
		k := key()
		n := 0
		if rng.Intn(2) == 0 {
			for it.Seek(k); it.Valid() && n < 12; it.Next() {
				see("%s fwd %x=%x", tag, it.Key(), it.Value())
				n++
			}
		} else {
			for it.SeekForPrev(k); it.Valid() && n < 12; it.Prev() {
				see("%s rev %x=%x", tag, it.Key(), it.Value())
				n++
			}
		}
		check(it.Err())
		check(it.Close())
	}
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(100); {
		case r < 45:
			check(db.Put(key(), val()))
		case r < 55:
			check(db.Delete(key()))
		case r < 62:
			var b Batch
			for j := 0; j < 5; j++ { // one key per quarter of the keyspace, then a delete
				b.Put(append([]byte{byte(j*64%256 + rng.Intn(64))}, fmt.Sprintf("k%03d", rng.Intn(300))...), val())
			}
			b.Delete(key())
			check(db.Write(&b))
		case r < 82:
			k := key()
			v, err := db.Get(k)
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			see("get %x=%x %v", k, v, err)
		case r < 88:
			scan("scan", db.NewIterator())
		case r < 91:
			snaps = append(snaps, snapAt{db.GetSnapshot(), op})
		case r < 96:
			if len(snaps) == 0 {
				continue
			}
			sn := snaps[rng.Intn(len(snaps))]
			k := key()
			v, err := sn.s.Get(k)
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			see("snap@%d get %x=%x %v", sn.op, k, v, err)
			scan(fmt.Sprintf("snap@%d", sn.op), sn.s.NewIterator())
		case r < 98:
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				snaps[i].s.Release()
				snaps = append(snaps[:i], snaps[i+1:]...)
			}
		case r < 99:
			check(db.Flush())
		default:
			for _, sn := range snaps {
				sn.s.Release()
			}
			snaps = nil
			check(db.Close())
			db = open()
		}
	}
	for _, sn := range snaps {
		sn.s.Release()
	}
	it := db.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		see("final %x=%x", it.Key(), it.Value())
	}
	check(it.Err())
	check(it.Close())
	check(db.CheckInvariants())
	return out
}

// TestConfigurationEquivalence is the one oracle every configuration
// answers to: the same history must produce the same user-visible
// results on every engine × shard count × value-separation setting.  It
// also pins the on-disk contract of the 1-store router: Shards 0 and 1
// are the same database, byte for byte in its directory listing, with
// no SHARDS marker and no shard-000 directory.
func TestConfigurationEquivalence(t *testing.T) {
	var ref []string
	refName := ""
	for _, e := range allEngines {
		for _, vt := range []int{0, 64} {
			listings := map[int]string{}
			for _, shards := range []int{0, 1, 4} {
				name := fmt.Sprintf("%v/shards=%d/threshold=%d", e, shards, vt)
				mem := vfs.NewMemFS()
				o := smallOpts(e, mem)
				o.Shards, o.ValueThreshold = shards, vt
				o.VlogSegmentSize = 16 << 10
				o.InlineBackground = true // deterministic file numbering
				got := equivalenceTranscript(t, o)
				if ref == nil {
					ref, refName = got, name
				}
				if len(got) != len(ref) {
					t.Errorf("%s: %d observations, %s has %d", name, len(got), refName, len(ref))
				}
				for i := 0; i < len(got) && i < len(ref); i++ {
					if got[i] != ref[i] {
						t.Errorf("%s diverges from %s at observation %d:\n got %s\nwant %s",
							name, refName, i, got[i], ref[i])
						break
					}
				}
				names, err := mem.List("db")
				if err != nil {
					t.Fatal(err)
				}
				listings[shards] = strings.Join(names, "\n")
				sharded := mem.Exists("db/"+shardsFileName) || mem.Exists(shardDirName("db", 0)+"/MANIFEST")
				if sharded != (shards > 1) {
					t.Errorf("%s: sharded layout on disk = %v", name, sharded)
				}
			}
			if listings[0] != listings[1] {
				t.Errorf("%v/threshold=%d: Shards 0 and 1 left different directories:\n%s\n--- vs\n%s",
					e, vt, listings[0], listings[1])
			}
		}
	}
	if len(ref) < 1000 {
		t.Fatalf("history observed only %d results; the test proves little", len(ref))
	}
}
