package iamdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"iamdb/internal/vfs"
)

// smallOpts scales everything down so structural events (flushes,
// splits, level growth) happen with kilobytes of data.
func smallOpts(e EngineKind, fs vfs.FS) *Options {
	return &Options{
		Engine: e, FS: fs,
		MemtableSize: 8 * 1024, CacheSize: 256 * 1024,
		MemBudget: 16 * 1024, Fanout: 4,
		FileSize: 8 * 1024, LevelSizeBase: 32 * 1024,
	}
}

func openSmall(t *testing.T, e EngineKind) *DB {
	t.Helper()
	db, err := Open("db", smallOpts(e, vfs.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var allEngines = []EngineKind{IAM, LSA, LevelDB, RocksDB}

func TestPutGetDeleteAllEngines(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			db := openSmall(t, e)
			defer db.Close()
			if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, err := db.Get([]byte("k1"))
			if err != nil || string(v) != "v1" {
				t.Fatalf("get: %q %v", v, err)
			}
			if _, err := db.Get([]byte("missing")); err != ErrNotFound {
				t.Fatalf("missing: %v", err)
			}
			if err := db.Delete([]byte("k1")); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get([]byte("k1")); err != ErrNotFound {
				t.Fatalf("after delete: %v", err)
			}
		})
	}
}

func TestWriteBatchAtomicVisibility(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	b.Delete([]byte("k050"))
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k050")); err != ErrNotFound {
		t.Fatal("delete in batch should win (later op)")
	}
	if v, err := db.Get([]byte("k099")); err != nil || string(v) != "v" {
		t.Fatalf("k099: %q %v", v, err)
	}
	if b.Len() != 101 {
		t.Fatalf("len %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLargeLoadAndReadBack(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			db := openSmall(t, e)
			defer db.Close()
			rng := rand.New(rand.NewSource(42))
			ref := make(map[string]string)
			for i := 0; i < 5000; i++ {
				k := fmt.Sprintf("user%06d", rng.Intn(8000))
				v := fmt.Sprintf("val-%d", i)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				ref[k] = v
			}
			for k, v := range ref {
				got, err := db.Get([]byte(k))
				if err != nil || string(got) != v {
					t.Fatalf("get %s: %q %v want %q", k, got, err, v)
				}
			}
		})
	}
}

func TestIteratorHidesVersionsAndTombstones(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("old"))
	}
	for i := 0; i < 500; i += 2 {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("new"))
	}
	for i := 100; i < 200; i++ {
		db.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	it := db.NewIterator()
	defer it.Close()
	count := 0
	for it.First(); it.Valid(); it.Next() {
		k := string(it.Key())
		var want string
		if k[1] == '0' && (k >= "k0100" && k < "k0200") {
			t.Fatalf("deleted key %s visible", k)
		}
		n := 0
		fmt.Sscanf(k, "k%d", &n)
		if n%2 == 0 {
			want = "new"
		} else {
			want = "old"
		}
		if string(it.Value()) != want {
			t.Fatalf("%s = %q want %q", k, it.Value(), want)
		}
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != 400 {
		t.Fatalf("iterated %d keys want 400", count)
	}
}

func TestIteratorSeekAndRangeScan(t *testing.T) {
	db := openSmall(t, LSA)
	defer db.Close()
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i*3)), []byte("v"))
	}
	it := db.NewIterator()
	defer it.Close()
	it.Seek([]byte("key00100"))
	var got []string
	for n := 0; it.Valid() && n < 3; n++ {
		got = append(got, string(it.Key()))
		it.Next()
	}
	want := "[key00102 key00105 key00108]"
	if fmt.Sprint(got) != want {
		t.Fatalf("%v want %v", got, want)
	}
	// Scan 100 records YCSB-style.
	it.Seek([]byte("key01000"))
	n := 0
	for ; it.Valid() && n < 100; n++ {
		it.Next()
	}
	if n != 100 {
		t.Fatalf("short scan: %d", n)
	}
}

func TestSnapshots(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	db.Put([]byte("k"), []byte("v1"))
	snap := db.GetSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("v2"))
	db.Delete([]byte("other"))
	// Churn to force compactions past the snapshot.
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("fill%06d", i)), bytes.Repeat([]byte("x"), 20))
	}
	v, err := snap.Get([]byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("snapshot get: %q %v", v, err)
	}
	cur, err := db.Get([]byte("k"))
	if err != nil || string(cur) != "v2" {
		t.Fatalf("current get: %q %v", cur, err)
	}
	// Snapshot scan must not see fill keys.
	it := snap.NewIterator()
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("snapshot scan saw %d keys want 1", n)
	}
	// Release allows reclamation; second release is a no-op.
	snap.Release()
	snap.Release()
}

func TestCrashRecoveryFromWAL(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			fs := vfs.NewMemFS()
			db, err := Open("db", smallOpts(e, fs))
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[string]string)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("user%05d", rng.Intn(3000))
				v := fmt.Sprintf("v%d", i)
				db.Put([]byte(k), []byte(v))
				ref[k] = v
			}
			db.Delete([]byte("user00001"))
			delete(ref, "user00001")
			// Simulate a crash: close without flushing memtables
			// (Close does not flush), then reopen and replay the WAL.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open("db", smallOpts(e, fs))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			for k, v := range ref {
				got, err := db2.Get([]byte(k))
				if err != nil || string(got) != v {
					t.Fatalf("after recovery %s: %q %v want %q", k, got, err, v)
				}
			}
			if _, err := db2.Get([]byte("user00001")); err != ErrNotFound {
				t.Fatal("tombstone lost in recovery")
			}
		})
	}
}

func TestRecoveryWithTornWALTail(t *testing.T) {
	fs := vfs.NewMemFS()
	db, _ := Open("db", smallOpts(IAM, fs))
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	db.Close()
	// Tear the live WAL's tail.
	names, _ := fs.List("db")
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".log" {
			f, _ := fs.Open("db/" + n)
			size, _ := f.Size()
			f.Close()
			if size > 10 {
				fs.Truncate("db/"+n, size-7)
			}
		}
	}
	db2, err := Open("db", smallOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Recovery drops the torn tail and says so.
	if n := db2.Metrics().CorruptionsDetected; n != 1 {
		t.Fatalf("recovery reported %d corruptions, want the one torn tail", n)
	}
	// Early records must survive; only the torn tail may be lost.
	if _, err := db2.Get([]byte("k000")); err != nil {
		t.Fatalf("k000 lost: %v", err)
	}
	if _, err := db2.Get([]byte("k050")); err != nil {
		t.Fatalf("k050 lost: %v", err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2500; i++ {
				db.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), []byte("v"))
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(3))
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.Get([]byte(fmt.Sprintf("w0-%06d", rng.Intn(2500))))
				it := db.NewIterator()
				it.Seek([]byte("w1-"))
				for n := 0; it.Valid() && n < 20; n++ {
					it.Next()
				}
				it.Close()
			}
		}()
	}
	// Stop readers once the last write becomes visible.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		v, err := db.Get([]byte("w1-002499"))
		if err == nil && string(v) == "v" {
			break
		}
	}
	close(stop)
	<-done
	// Verify integrity.
	for w := 0; w < 2; w++ {
		for i := 0; i < 2500; i += 97 {
			if _, err := db.Get([]byte(fmt.Sprintf("w%d-%06d", w, i))); err != nil {
				t.Fatalf("w%d-%06d: %v", w, i, err)
			}
		}
	}
}

func TestMetricsAndWriteAmp(t *testing.T) {
	db := openSmall(t, RocksDB)
	defer db.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		db.Put([]byte(fmt.Sprintf("user%08d", rng.Intn(1<<30))), bytes.Repeat([]byte("v"), 30))
	}
	db.CompactAll()
	m := db.Metrics()
	if m.UserBytes == 0 || m.SpaceUsed == 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	if amp := m.WriteAmplification(); amp < 1 || amp > 100 {
		t.Fatalf("write amp %.2f implausible", amp)
	}
	if len(m.Levels) == 0 {
		t.Fatal("no level info")
	}
}

func TestMixedLevelExposed(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("x"), 20))
	}
	m, k := db.MixedLevel()
	if m < 1 || k < 1 {
		t.Fatalf("mixed level %d/%d", m, k)
	}
	db2 := openSmall(t, LevelDB)
	defer db2.Close()
	if m, k := db2.MixedLevel(); m != 0 || k != 0 {
		t.Fatal("baselines have no mixed level")
	}
}

func TestUseAfterClose(t *testing.T) {
	db := openSmall(t, IAM)
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k2"), []byte("v")); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("get after close: %v", err)
	}
	if err := db.Close(); err != ErrClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestEmptyBatchAndEmptyDB(t *testing.T) {
	db := openSmall(t, LSA)
	defer db.Close()
	var b Batch
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	it := db.NewIterator()
	defer it.Close()
	it.First()
	if it.Valid() {
		t.Fatal("empty DB iterator valid")
	}
	if _, err := db.Get([]byte("any")); err != ErrNotFound {
		t.Fatal(err)
	}
}

func TestOverwriteHeavyWorkload(t *testing.T) {
	// The overwrite pattern of Fig. 10: constant updates of a fixed
	// keyspace; engines must keep only live data findable.
	for _, e := range []EngineKind{IAM, LSA, RocksDB} {
		t.Run(e.String(), func(t *testing.T) {
			db := openSmall(t, e)
			defer db.Close()
			const keys = 300
			for round := 0; round < 20; round++ {
				for i := 0; i < keys; i++ {
					db.Put([]byte(fmt.Sprintf("k%04d", i)),
						[]byte(fmt.Sprintf("round%02d", round)))
				}
			}
			for i := 0; i < keys; i++ {
				v, err := db.Get([]byte(fmt.Sprintf("k%04d", i)))
				if err != nil || string(v) != "round19" {
					t.Fatalf("k%04d: %q %v", i, v, err)
				}
			}
		})
	}
}

func TestValuesOfVaryingSizes(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	sizes := []int{0, 1, 100, 1024, 4096, 40000}
	for _, n := range sizes {
		key := []byte(fmt.Sprintf("size%06d", n))
		val := bytes.Repeat([]byte("z"), n)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	db.CompactAll()
	for _, n := range sizes {
		v, err := db.Get([]byte(fmt.Sprintf("size%06d", n)))
		if err != nil || len(v) != n {
			t.Fatalf("size %d: got %d bytes, err %v", n, len(v), err)
		}
	}
}

func TestOSFilesystemPersistence(t *testing.T) {
	// Everything else runs on MemFS; this test covers the real-OS
	// path: reopen across "process restarts", positioned writes into
	// reopened tables, manifest rewrite on open.
	dir := t.TempDir()
	opts := &Options{Engine: IAM, MemtableSize: 16 * 1024, CacheSize: 128 * 1024}
	ref := map[string]string{}
	for restart := 0; restart < 3; restart++ {
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("restart %d open: %v", restart, err)
		}
		for i := 0; i < 1500; i++ {
			k := fmt.Sprintf("k%05d", (restart*997+i)%2000)
			v := fmt.Sprintf("r%d-%d", restart, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
		for k, v := range ref {
			got, err := db.Get([]byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("restart %d: %s = %q (%v) want %q", restart, k, got, err, v)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompressionOption(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := smallOpts(IAM, fs)
	opts.Compression = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Compressible payloads round-trip through flush and compaction.
	val := bytes.Repeat([]byte("the-same-phrase-"), 32)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	db.CompactAll()
	compressed := db.Metrics().SpaceUsed
	for i := 0; i < 2000; i += 111 {
		v, err := db.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	db.Close()

	// Same data uncompressed occupies much more space.
	fs2 := vfs.NewMemFS()
	db2, err := Open("db", smallOpts(IAM, fs2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 2000; i++ {
		db2.Put([]byte(fmt.Sprintf("k%05d", i)), val)
	}
	db2.CompactAll()
	plain := db2.Metrics().SpaceUsed
	if compressed*2 >= plain {
		t.Fatalf("compression saved too little: %d vs %d", compressed, plain)
	}
	// Reopening a compressed store works.
	db3, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if v, err := db3.Get([]byte("k00042")); err != nil || !bytes.Equal(v, val) {
		t.Fatalf("reopen compressed: %v", err)
	}
}

func TestFlushAndApproximateSize(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("x"), 100))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := db.ApproximateSize([]byte("k00000"), []byte("k01999"))
	if whole <= 0 {
		t.Fatal("no size after flush")
	}
	// Roughly half the keyspace should be roughly half the bytes.
	half := db.ApproximateSize([]byte("k00000"), []byte("k00999"))
	frac := float64(half) / float64(whole)
	if frac < 0.25 || frac > 0.75 {
		t.Fatalf("half-range fraction %.2f implausible (%d / %d)", frac, half, whole)
	}
	// Disjoint empty range.
	if n := db.ApproximateSize([]byte("zz"), []byte("zzz")); n != 0 {
		t.Fatalf("empty range sized %d", n)
	}
	// Flush on an empty memtable is a no-op.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}
