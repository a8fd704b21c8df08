package iamdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iamdb/internal/vfs"
)

// shardKey returns a key owned by shard s of 4 under the default
// splits (0x40, 0x80, 0xc0): first byte 0x10 + 0x40*s, appended as a
// raw byte (not %c, which would UTF-8-encode bytes >= 0x80).
func shardKey(s, i int) []byte {
	return append([]byte{byte(0x10 + 0x40*s)}, fmt.Sprintf("%05d", i)...)
}

func openShardedSmall(t *testing.T, fs vfs.FS, e EngineKind, shards int) *DB {
	t.Helper()
	o := smallOpts(e, fs)
	o.Shards = shards
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestShardedPutGetDeleteAllEngines(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			db := openShardedSmall(t, vfs.NewMemFS(), e, 4)
			defer db.Close()
			if db.NumShards() != 4 {
				t.Fatalf("NumShards = %d", db.NumShards())
			}
			for s := 0; s < 4; s++ {
				for i := 0; i < 50; i++ {
					k := shardKey(s, i)
					if err := db.Put(k, []byte(fmt.Sprintf("v%d.%d", s, i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			for s := 0; s < 4; s++ {
				for i := 0; i < 50; i++ {
					v, err := db.Get(shardKey(s, i))
					if err != nil || string(v) != fmt.Sprintf("v%d.%d", s, i) {
						t.Fatalf("get shard %d key %d: %q %v", s, i, v, err)
					}
				}
			}
			if err := db.Delete(shardKey(2, 7)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get(shardKey(2, 7)); err != ErrNotFound {
				t.Fatalf("after delete: %v", err)
			}
		})
	}
}

func TestShardedReopenAdoptsLayout(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openShardedSmall(t, fs, IAM, 4)
	for s := 0; s < 4; s++ {
		for i := 0; i < 30; i++ {
			if err := db.Put(shardKey(s, i), []byte(fmt.Sprintf("v%d.%d", s, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with no shard options at all: the SHARDS marker routes.
	db2, err := Open("db", smallOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.NumShards() != 4 {
		t.Fatalf("reopen NumShards = %d", db2.NumShards())
	}
	for s := 0; s < 4; s++ {
		for i := 0; i < 30; i++ {
			v, err := db2.Get(shardKey(s, i))
			if err != nil || string(v) != fmt.Sprintf("v%d.%d", s, i) {
				t.Fatalf("reopen get shard %d key %d: %q %v", s, i, v, err)
			}
		}
	}
}

func TestShardedLayoutMismatchRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openShardedSmall(t, fs, IAM, 4)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	o := smallOpts(IAM, fs)
	o.Shards = 8
	if _, err := Open("db", o); err == nil {
		t.Fatal("conflicting shard count accepted")
	}
	o.Shards = 4
	o.ShardSplits = [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	if _, err := Open("db", o); err == nil {
		t.Fatal("conflicting splits accepted")
	}
}

func TestShardedMarkerRotDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openShardedSmall(t, fs, IAM, 2)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the marker: open must fail with a typed
	// corruption error, never misroute.
	if _, _, _, err := vfs.CorruptByte(fs, "db/SHARDS", 9, vfs.RotFlip); err != nil {
		t.Fatal(err)
	}
	_, err := Open("db", smallOpts(IAM, fs))
	if err == nil {
		t.Fatal("damaged SHARDS marker opened cleanly")
	}
	if !IsCorruption(err) {
		t.Fatalf("not a typed corruption error: %v", err)
	}
}

func TestShardedMissingMarkerDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openShardedSmall(t, fs, IAM, 2)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("db/SHARDS"); err != nil {
		t.Fatal(err)
	}
	// Even an open that never mentions shards must refuse: shard data
	// exists and routing it is guesswork.
	_, err := Open("db", smallOpts(IAM, fs))
	if err == nil {
		t.Fatal("sharded dir without marker opened cleanly")
	}
	if !IsCorruption(err) {
		t.Fatalf("not a typed corruption error: %v", err)
	}
}

func TestShardedIteratorForwardReverse(t *testing.T) {
	db := openShardedSmall(t, vfs.NewMemFS(), IAM, 4)
	defer db.Close()
	var want []string
	for s := 0; s < 4; s++ {
		for i := 0; i < 40; i++ {
			k := shardKey(s, i)
			if err := db.Put(k, []byte(fmt.Sprintf("v%d.%d", s, i))); err != nil {
				t.Fatal(err)
			}
			want = append(want, string(k))
		}
	}
	// Delete a few across shards; they must vanish from scans.
	for _, s := range []int{0, 2, 3} {
		if err := db.Delete(shardKey(s, 11)); err != nil {
			t.Fatal(err)
		}
		want = removeString(want, string(shardKey(s, 11)))
	}
	it := db.NewIterator()
	defer it.Close()
	var got []string
	for it.First(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if !equalStrings(got, want) {
		t.Fatalf("forward scan: got %d keys, want %d (first diff %q)", len(got), len(want), firstDiff(got, want))
	}
	var rev []string
	for it.Last(); it.Valid(); it.Prev() {
		rev = append(rev, string(it.Key()))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if !equalStrings(rev, want) {
		t.Fatalf("reverse scan mismatch (first diff %q)", firstDiff(rev, want))
	}
	// Seek into the middle shard, then walk across a shard boundary.
	it.Seek(shardKey(1, 35))
	var crossed []string
	for ; it.Valid() && len(crossed) < 10; it.Next() {
		crossed = append(crossed, string(it.Key()))
	}
	if len(crossed) != 10 || crossed[0] != string(shardKey(1, 35)) ||
		crossed[5] != string(shardKey(2, 0)) {
		t.Fatalf("boundary crossing scan wrong: %q", crossed)
	}
	// SeekForPrev from inside shard 2 walks back into shard 1.
	it.SeekForPrev(shardKey(2, 2))
	var back []string
	for ; it.Valid() && len(back) < 6; it.Prev() {
		back = append(back, string(it.Key()))
	}
	if len(back) != 6 || back[0] != string(shardKey(2, 2)) || back[3] != string(shardKey(1, 39)) {
		t.Fatalf("boundary crossing reverse wrong: %q", back)
	}
}

func removeString(s []string, v string) []string {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

func TestShardedSnapshotConsistentCut(t *testing.T) {
	db := openShardedSmall(t, vfs.NewMemFS(), IAM, 4)
	defer db.Close()
	write := func(round int) {
		var b Batch
		for s := 0; s < 4; s++ {
			b.Put(shardKey(s, 0), []byte(fmt.Sprintf("r%d", round)))
		}
		if err := db.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	snap := db.GetSnapshot()
	defer snap.Release()
	write(2)
	// The snapshot must see round 1 on every shard, the live view round 2.
	for s := 0; s < 4; s++ {
		v, err := snap.Get(shardKey(s, 0))
		if err != nil || string(v) != "r1" {
			t.Fatalf("snapshot shard %d: %q %v", s, v, err)
		}
		v, err = db.Get(shardKey(s, 0))
		if err != nil || string(v) != "r2" {
			t.Fatalf("live shard %d: %q %v", s, v, err)
		}
	}
	it := snap.NewIterator()
	defer it.Close()
	for it.First(); it.Valid(); it.Next() {
		if string(it.Value()) != "r1" {
			t.Fatalf("snapshot iterator saw %q", it.Value())
		}
	}
}

// TestShardedStoresSyncInParallel pins what the shard router is for: each
// store commits through a pipeline of its own, so writers on different
// shards make their WALs durable at the same time.  With SyncWrites on and
// one writer per shard, every WAL Sync is held until all four are in
// flight at once.  A lock the stores' commits shared would let one in at a
// time, and the syncs would give up at the deadline.
func TestShardedStoresSyncInParallel(t *testing.T) {
	const shards = 4
	// Once armed, each WAL Sync waits until shards of them are in flight
	// at once or the deadline passes; peak is the most seen at once.
	var (
		armed          atomic.Bool
		deadline       time.Time // set before armed
		all            = make(chan struct{})
		mu             sync.Mutex
		inFlight, peak int
	)
	hfs := &hookFS{FS: vfs.NewMemFS(), match: "db/", before: func(string) {}}
	hfs.sync = func(f vfs.File, name string) error {
		if armed.Load() && strings.HasSuffix(name, ".log") {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
				if peak == shards {
					close(all)
				}
			}
			mu.Unlock()
			select {
			case <-all:
			case <-time.After(time.Until(deadline)):
			}
			mu.Lock()
			inFlight--
			mu.Unlock()
		}
		return f.Sync()
	}
	o := smallOpts(IAM, hfs)
	o.Shards = shards
	o.SyncWrites = true
	db, err := Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	deadline = time.Now().Add(5 * time.Second)
	armed.Store(true)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := db.Put(shardKey(s, 0), []byte("v")); err != nil {
				t.Errorf("shard %d: %v", s, err)
			}
		}(s)
	}
	wg.Wait()
	armed.Store(false)
	mu.Lock()
	defer mu.Unlock()
	if peak < shards {
		t.Fatalf("at most %d WAL syncs in flight; want %d, one per shard", peak, shards)
	}
}

// TestShardedCrossShardHammer is the torn-batch hunt: writers commit
// cross-shard batches carrying one round number per batch while readers
// point-get, snapshot-read and walk iterators both ways.  A reader
// observing two different rounds inside one batch's key set — or an
// iterator yielding keys out of order — fails the run.  Run with -race.
func TestShardedCrossShardHammer(t *testing.T) {
	db := openShardedSmall(t, vfs.NewMemFS(), IAM, 4)
	defer db.Close()
	const (
		writers = 4
		rows    = 3 // independent batch rows per writer
		rounds  = 150
	)
	key := func(w, row, s int) []byte {
		return append([]byte{byte(0x10 + 0x40*s)}, fmt.Sprintf("%02d.%02d", w, row)...)
	}
	// Seed every row at round 0 so readers always find the full set.
	for w := 0; w < writers; w++ {
		for r := 0; r < rows; r++ {
			var b Batch
			for s := 0; s < 4; s++ {
				b.Put(key(w, r, s), []byte("round00000"))
			}
			if err := db.Write(&b); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 1; round <= rounds && !stop.Load(); round++ {
				row := rng.Intn(rows)
				var b Batch
				val := []byte(fmt.Sprintf("round%05d", round))
				for s := 0; s < 4; s++ {
					b.Put(key(w, row, s), val)
				}
				if err := db.Write(&b); err != nil {
					fail("write: %v", err)
					return
				}
				// Read-your-writes through the watermark.
				got, err := db.Get(key(w, row, 3))
				if err != nil || !bytes.Equal(got, val) {
					fail("read-your-writes: %q %v (want %q)", got, err, val)
					return
				}
			}
		}(w)
	}
	readBatch := func(get func([]byte) ([]byte, error), w, row int) (string, bool) {
		first := ""
		for s := 0; s < 4; s++ {
			v, err := get(key(w, row, s))
			if err != nil {
				fail("get: %v", err)
				return "", false
			}
			if s == 0 {
				first = string(v)
			} else if string(v) != first {
				fail("torn batch: writer %d row %d shard %d has %q, shard 0 has %q",
					w, row, s, v, first)
				return "", false
			}
		}
		return first, true
	}
	// Point readers: direct gets must never see a torn batch.
	for g := 0; g < 2; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for !stop.Load() {
				w, row := rng.Intn(writers), rng.Intn(rows)
				snap := db.GetSnapshot()
				if _, ok := readBatch(snap.Get, w, row); !ok {
					snap.Release()
					return
				}
				snap.Release()
			}
		}(g)
	}
	// Iterator walkers: forward and reverse, asserting key order and a
	// complete key set on every walk.
	for dir := 0; dir < 2; dir++ {
		readerWG.Add(1)
		go func(backward bool) {
			defer readerWG.Done()
			for !stop.Load() {
				it := db.NewIterator()
				var prev []byte
				n := 0
				step := func() {
					k := it.Key()
					if prev != nil {
						c := bytes.Compare(prev, k)
						if (!backward && c >= 0) || (backward && c <= 0) {
							fail("iterator order violation (backward=%v): %q then %q", backward, prev, k)
						}
					}
					prev = append(prev[:0], k...)
					n++
				}
				if backward {
					for it.Last(); it.Valid() && !stop.Load(); it.Prev() {
						step()
					}
				} else {
					for it.First(); it.Valid() && !stop.Load(); it.Next() {
						step()
					}
				}
				if err := it.Err(); err != nil {
					fail("iterator: %v", err)
				}
				if n != writers*rows*4 && !stop.Load() {
					fail("iterator saw %d keys, want %d", n, writers*rows*4)
				}
				it.Close()
			}
		}(dir == 1)
	}
	// Writers finish their rounds, then the readers are told to stop.
	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
}

func TestShardedCheckpoint(t *testing.T) {
	fs := vfs.NewMemFS()
	db := openShardedSmall(t, fs, IAM, 4)
	for s := 0; s < 4; s++ {
		for i := 0; i < 40; i++ {
			if err := db.Put(shardKey(s, i), []byte(fmt.Sprintf("v%d.%d", s, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Checkpoint("ckpt"); err != nil {
		t.Fatal(err)
	}
	// Writes after the checkpoint must not leak into it.
	if err := db.Put(shardKey(1, 5), []byte("after")); err != nil {
		t.Fatal(err)
	}
	ck, err := Open("ckpt", smallOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.NumShards() != 4 {
		t.Fatalf("checkpoint NumShards = %d", ck.NumShards())
	}
	for s := 0; s < 4; s++ {
		for i := 0; i < 40; i++ {
			v, err := ck.Get(shardKey(s, i))
			if err != nil || string(v) != fmt.Sprintf("v%d.%d", s, i) {
				t.Fatalf("checkpoint get shard %d key %d: %q %v", s, i, v, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedFlushScrubMetrics(t *testing.T) {
	db := openShardedSmall(t, vfs.NewMemFS(), IAM, 4)
	defer db.Close()
	var b Batch
	for s := 0; s < 4; s++ {
		for i := 0; i < 200; i++ {
			b.Put(shardKey(s, i), bytes.Repeat([]byte{byte(i)}, 64))
		}
	}
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Engine.Flushes < 4 {
		t.Fatalf("aggregate flushes %d, want >= 4 (one per shard)", m.Engine.Flushes)
	}
	if m.UserBytes == 0 || m.SpaceUsed == 0 {
		t.Fatalf("aggregate sizes empty: %+v", m)
	}
	if m.CommitBatches < 4 {
		t.Fatalf("aggregate commit batches %d", m.CommitBatches)
	}
	rep, err := db.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v (%s)", err, rep.String())
	}
	if rep.Tables == 0 || rep.WALFiles < 4 {
		t.Fatalf("scrub coverage too small: %s", rep.String())
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Per-shard views line up with the aggregate.
	var user int64
	for i := 0; i < db.NumShards(); i++ {
		user += db.ShardMetrics(i).UserBytes
	}
	if user != m.UserBytes {
		t.Fatalf("per-shard UserBytes sum %d != aggregate %d", user, m.UserBytes)
	}
	if errors.Is(db.Resume(), ErrClosed) {
		t.Fatal("resume on open DB reported closed")
	}
}

// shardedGoldenRun executes one fully deterministic sharded workload —
// virtual disk clock shared by all shards, inline background work,
// tracing on — and returns every observable export.
func shardedGoldenRun(t *testing.T, e EngineKind) (report, timeline, jsonl string) {
	t.Helper()
	clock := new(vfs.DiskClock)
	disk := vfs.NewDisk(vfs.NewMemFS(), vfs.SSDProfile(), clock)
	ios := new(vfs.IOStats)
	opts := smallOpts(e, vfs.NewStatsFS(disk, ios))
	opts.Clock = clock
	opts.Trace = NewTraceRecorder(8192, clock)
	opts.InlineBackground = true
	opts.Shards = 4
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sampler := db.NewSampler(200*time.Microsecond, 64)

	val := make([]byte, 100)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < 300; i++ {
		// Every third write is a cross-shard batch; the rest target a
		// rotating shard so all four pipelines see traffic.
		if i%3 == 0 {
			var b Batch
			for s := 0; s < 4; s++ {
				b.Put(shardKey(s, i%97), val)
			}
			if err := db.Write(&b); err != nil {
				t.Fatal(err)
			}
		} else {
			k := shardKey(i%4, i*7919%1000)
			if err := db.Put(k, val); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				if _, err := db.Get(k); err != nil {
					t.Fatal(err)
				}
			}
			if i%17 == 0 {
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		sampler.Poll()
	}

	sampler.Poll()
	tl, err := json.Marshal(sampler.Points())
	if err != nil {
		t.Fatal(err)
	}
	var jb strings.Builder
	if err := db.Trace().WriteJSONLines(&jb); err != nil {
		t.Fatal(err)
	}
	return db.Metrics().String(), string(tl), jb.String()
}

// TestShardedGoldenDeterminism extends the reproducibility gate to the
// sharded front-end: two identical virtual-clock runs with four shards
// and inline background work must export byte-identical metrics
// reports, timelines and traces.
func TestShardedGoldenDeterminism(t *testing.T) {
	for _, e := range []EngineKind{IAM, LevelDB} {
		t.Run(e.String(), func(t *testing.T) {
			rep1, tl1, jl1 := shardedGoldenRun(t, e)
			rep2, tl2, jl2 := shardedGoldenRun(t, e)
			if rep1 != rep2 {
				t.Errorf("metrics reports differ between identical runs:\n--- run1\n%s\n--- run2\n%s", rep1, rep2)
			}
			if tl1 != tl2 {
				t.Errorf("timelines differ between identical runs")
			}
			if jl1 != jl2 {
				t.Errorf("JSONL trace exports differ between identical runs")
			}
			if !strings.Contains(jl1, "commit.group") {
				t.Error("trace export has no commit.group spans")
			}
		})
	}
}

// TestShardedDebugLevels exercises the /levels endpoint on a sharded
// store: the aggregate headline names the shard count and every shard
// renders its own tree section.
func TestShardedDebugLevels(t *testing.T) {
	db := openShardedSmall(t, vfs.NewMemFS(), IAM, 4)
	defer db.Close()
	for s := 0; s < 4; s++ {
		for i := 0; i < 30; i++ {
			if err := db.Put(shardKey(s, i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.DebugHandler(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/levels")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "4 shards") {
		t.Fatalf("/levels missing shard count:\n%s", text)
	}
	for s := 0; s < 4; s++ {
		if !strings.Contains(text, fmt.Sprintf("-- shard %03d ", s)) {
			t.Fatalf("/levels missing shard %d section:\n%s", s, text)
		}
	}
}
