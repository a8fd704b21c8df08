package tableset

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"iamdb/internal/cache"
	"iamdb/internal/engine"
	"iamdb/internal/invariants"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/table"
	"iamdb/internal/vfs"
)

// versionedRun is a sorted run over users user keys, each with 1 to
// maxVersions versions (newest first, as internal keys order) of
// valLen-byte values.
func versionedRun(seed int64, users, maxVersions, valLen int) *iterator.Slice {
	rng := rand.New(rand.NewSource(seed))
	var keys, vals [][]byte
	seq := kv.Seq(0)
	for u := 0; u < users; u++ {
		versions := 1 + rng.Intn(maxVersions)
		seq += kv.Seq(versions)
		for v := 0; v < versions; v++ {
			keys = append(keys, kv.MakeInternalKey([]byte(fmt.Sprintf("user%06d", u)), seq-kv.Seq(v), kv.KindSet))
			val := make([]byte, valLen)
			rng.Read(val)
			vals = append(vals, val)
		}
	}
	return iterator.NewSlice(kv.CompareInternal, keys, vals)
}

func buildRuns(t *testing.T, s *Set, src iterator.Iterator, limit, floor int64) []*Table {
	t.Helper()
	s.Mu.Lock()
	defer s.Mu.Unlock()
	src.First()
	tables, _, err := s.BuildRuns(src, limit, floor)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestBuildRunsSplitsAtUserKeysAndSizesFiles checks the two rules every
// engine's files depend on, with and without a capacity floor: a run ends
// at the first user-key boundary at or past limit (so a key's versions
// share a table), and a file's capacity is max(floor, b + b/2 + 64 KiB)
// for the b key and value bytes it holds.  The runs together are the
// source, record for record.
func TestBuildRunsSplitsAtUserKeysAndSizesFiles(t *testing.T) {
	const limit = 8 << 10
	for _, floor := range []int64{0, 256 << 10} {
		s := openSet(t, vfs.NewMemFS(), 1, 0)
		src := versionedRun(21, 300, 6, 200)
		tables := buildRuns(t, s, src, limit, floor)
		if len(tables) < 10 {
			t.Fatalf("floor %d: %d tables, want the source split many ways", floor, len(tables))
		}
		rec := 0
		for i, tb := range tables {
			it := tb.NewIter()
			var size, sizeBeforeLastUser int64
			var lastUser []byte
			for it.First(); it.Valid(); it.Next() {
				if !bytes.Equal(it.Key(), src.Keys[rec]) || !bytes.Equal(it.Value(), src.Vals[rec]) {
					t.Fatalf("floor %d: table %d holds %s where the source has %s", floor, i,
						kv.InternalKeyString(it.Key()), kv.InternalKeyString(src.Keys[rec]))
				}
				if u := kv.UserKey(it.Key()); !bytes.Equal(u, lastUser) {
					lastUser = append(lastUser[:0], u...)
					sizeBeforeLastUser = size
				}
				size += int64(len(it.Key()) + len(it.Value()))
				rec++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if rec < len(src.Keys) {
				if bytes.Equal(kv.UserKey(src.Keys[rec]), lastUser) {
					t.Errorf("floor %d: user key %q continues past the end of table %d", floor, lastUser, i)
				}
				if size < limit || sizeBeforeLastUser >= limit {
					t.Errorf("floor %d: table %d holds %d bytes (%d before its last user key), limit %d",
						floor, i, size, sizeBeforeLastUser, limit)
				}
			}
			if want := max(floor, size+size/2+64<<10); tb.Capacity() != want {
				t.Errorf("floor %d: table %d has capacity %d for %d bytes, want %d", floor, i, tb.Capacity(), size, want)
			}
		}
		if rec != len(src.Keys) {
			t.Errorf("floor %d: tables hold %d records, source %d", floor, rec, len(src.Keys))
		}
		s.Close()
	}
}

// TestBuildRunsFitsOversizedVersionChain: one user key whose versions
// outweigh the limit many times over still lands in a single file, sized
// to hold it.
func TestBuildRunsFitsOversizedVersionChain(t *testing.T) {
	s := openSet(t, vfs.NewMemFS(), 1, 0)
	defer s.Close()
	var keys, vals [][]byte
	for seq := kv.Seq(300); seq > 0; seq-- {
		keys = append(keys, kv.MakeInternalKey([]byte("hot"), seq, kv.KindSet))
		vals = append(vals, bytes.Repeat([]byte{byte(seq)}, 1024))
	}
	keys = append(keys, kv.MakeInternalKey([]byte("next"), 1, kv.KindSet))
	vals = append(vals, []byte("v"))
	tables := buildRuns(t, s, iterator.NewSlice(kv.CompareInternal, keys, vals), 4<<10, 0)
	if len(tables) != 2 || tables[0].Entries() != 300 || tables[1].Entries() != 1 {
		t.Fatalf("got %d tables, want the 300-version chain in one and the next key in another", len(tables))
	}
	if tables[0].Capacity() < 300<<10 {
		t.Fatalf("the chain's file has capacity %d, under its data", tables[0].Capacity())
	}
}

// failedSource is an iterator whose first position failed: never valid,
// with an error to report.
type failedSource struct {
	iterator.Empty
	err error
}

func (f failedSource) Err() error { return f.err }

func TestBuildRunsReportsSourceThatNeverStarted(t *testing.T) {
	s := openSet(t, vfs.NewMemFS(), 1, 0)
	defer s.Close()
	s.Mu.Lock()
	defer s.Mu.Unlock()
	boom := errors.New("first block unreadable")
	tables, n, err := s.BuildRuns(failedSource{err: boom}, 1<<20, 0)
	if !errors.Is(err, boom) || len(tables) != 0 || n != 0 {
		t.Fatalf("got %d tables, %d bytes, err %v; want the source's error and nothing built", len(tables), n, err)
	}
}

// tableDiscardFS keeps the manifest but none of a table file's bytes, so
// an allocation count over it is the set's and the table writer's own,
// not the in-memory file system's.
type tableDiscardFS struct{ vfs.FS }

func (fs tableDiscardFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".mst") {
		return discardFile{}, nil
	}
	return fs.FS.Create(name)
}

type discardFile struct{ vfs.File }

func (discardFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Sync() error                            { return nil }
func (discardFile) Close() error                           { return nil }

// TestBuildRunsAllocs is the allocation gate of the one data-movement
// primitive under every engine: a merge of two sources through the
// retention filter into four node-sized (Ct = 1 MiB) tables of 1 KiB
// records allocates per table and per 64 KiB gathered, not per record.
func TestBuildRunsAllocs(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertions box their arguments once per record")
	}
	const records = 4096
	a := versionedRun(1, records/2, 1, 1024-31)
	b := versionedRun(2, records/2, 1, 1024-31)
	for i, k := range b.Keys { // the same user keys, newer: every record of a is shadowed or kept
		b.Keys[i] = kv.MakeInternalKey(kv.UserKey(k), kv.SeqOf(k)+records, kv.KindSet)
	}
	s, err := Open(Config{FS: tableDiscardFS{vfs.NewMemFS()}, Dir: "db", MinLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Mu.Lock()
	defer s.Mu.Unlock()
	allocs := testing.AllocsPerRun(5, func() {
		src := engine.DropObsolete(iterator.NewMerging(kv.CompareInternal, b, a), 0, false, nil)
		src.First()
		tables, _, err := s.BuildRuns(src, 1<<20, 2<<20)
		if err != nil || len(tables) != 4 {
			t.Fatalf("%d tables, %v", len(tables), err)
		}
	})
	t.Logf("%.0f allocations, %.4f per record", allocs, allocs/records)
	// The gather and the table writers come from sync.Pools, which drop
	// some of what is put back under the race detector.
	limit := 0.05
	if raceEnabled {
		limit = 0.10
	}
	if perRecord := allocs / records; perRecord > limit {
		t.Errorf("BuildRuns of %d records allocates %.0f times, %.3f per record; want <= %.2f", records, allocs, perRecord, limit)
	}
}

// TestMergeReadAllocs is the allocation gate of a whole merge, its read
// side included: two real input tables of three sequences each, behind a
// block cache as the engines open them, merged through their iterators
// and the retention filter into fresh tables.  A merge reads its inputs
// once and keeps nothing — no cache fill, read-ahead windows and the
// gather borrowed and handed back — so it allocates a small fraction of
// a byte per byte it reads (a fresh window per sequence, a fresh gather
// per merge and a cache copy per block came to 1.9 bytes per byte).
func TestMergeReadAllocs(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertions box their arguments once per record")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops what is put back")
	}
	mem := vfs.NewMemFS()
	opt := table.Options{Cache: cache.New(1 << 20)}
	var inputs []*table.Table
	var inputBytes int64
	seq := kv.Seq(0)
	for i := 0; i < 2; i++ {
		tb, err := table.Create(mem, fmt.Sprintf("input%d", i), uint64(100+i), 4<<20, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		for j := 0; j < 3; j++ {
			src := versionedRun(int64(10*i+j), 340, 1, 1024-31)
			for n, k := range src.Keys { // every sequence newer than the one before
				src.Keys[n] = kv.MakeInternalKey(kv.UserKey(k), kv.SeqOf(k)+seq, kv.KindSet)
			}
			seq += 1000
			if _, err := tb.Append(src); err != nil {
				t.Fatal(err)
			}
		}
		inputs = append(inputs, tb)
		inputBytes += tb.DataSize()
	}
	s, err := Open(Config{FS: tableDiscardFS{vfs.NewMemFS()}, Dir: "db", MinLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Mu.Lock()
	defer s.Mu.Unlock()
	merge := func() {
		src := engine.DropObsolete(iterator.NewMerging(kv.CompareInternal, inputs[1].NewIter(), inputs[0].NewIter()), 0, false, nil)
		defer src.Close()
		src.First()
		tables, _, err := s.BuildRuns(src, 1<<20, 2<<20)
		if err != nil || len(tables) != 2 {
			t.Fatalf("%d tables, %v", len(tables), err)
		}
	}
	// One processor, as testing.AllocsPerRun measures: a pool keeps what
	// is put back per processor, and the first merge fills this one's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	merge()
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		merge()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*inputBytes)
	blocks := float64(rounds*inputBytes) / 4096
	t.Logf("%d input bytes: %.3f bytes allocated per byte read, %.2f mallocs per 4 KiB block",
		inputBytes, perByte, float64(after.Mallocs-before.Mallocs)/blocks)
	if perByte > 0.15 {
		t.Errorf("a merge of %d bytes allocates %.3f bytes per byte it reads; want <= 0.15", inputBytes, perByte)
	}
}

// The allocation gate of a short scan, the read appends make dearer: a
// Seek and 50 Next over a node of four sequences, its blocks cached, from
// the iterator's opening to its Close.  Each sequence's iterator reads
// every block it loads with its own data reader into its own key storage
// and finds blocks through the sequence's fence pointers (45 allocations
// when each block load made a reader, a restart array and an iterator);
// what is left is an iterator per sequence and the heaps that merge them.
func TestShortScanAllocs(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertions box their arguments")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops what is put back")
	}
	s, err := Open(Config{FS: vfs.NewMemFS(), Dir: "db", MinLevel: 1, Cache: cache.New(8 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := func(from int) []string {
		var out []string
		for i := from; i < 2000; i += 4 {
			out = append(out, fmt.Sprintf("k%05d", i))
		}
		return out
	}
	node := place(t, s, 1, run(1, keys(0)...))
	s.Mu.Lock()
	for i := 1; i < 4; i++ {
		if _, err := node.Append(run(kv.Seq(1+i), keys(i)...)); err != nil {
			t.Fatal(err)
		}
		s.Appended(1, node)
	}
	s.Mu.Unlock()
	target := seekKey("k01000")
	scan := func() {
		it := s.NewIter()
		it.Seek(target)
		for i := 0; i < 50; i++ {
			it.Next()
		}
		if !it.Valid() || string(kv.UserKey(it.Key())) != "k01050" {
			t.Fatalf("the scan ended at %q", it.Key())
		}
		it.Close()
	}
	scan() // fills the cache
	n := testing.AllocsPerRun(100, scan)
	t.Logf("Seek + 50 Next over a node of 4 sequences: %.0f allocations", n)
	if n > 17 {
		t.Errorf("Seek + 50 Next over a node of 4 sequences allocates %.0f times; want <= 17", n)
	}
}
