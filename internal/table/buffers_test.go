package table

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"iamdb/internal/bloom"
	"iamdb/internal/cache"
	"iamdb/internal/invariants"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/vfs"
)

// The writer builds every block of a sequence in one buffer, keeps Bloom
// hashes instead of keys, and the sequence iterator refills one
// read-ahead window in place.  These tests pin what that reuse must not
// change: the bytes of a file, the filter, and what an iterator returns
// while its buffers turn over.  Under -tags invariants every recycled
// buffer is poisoned first, so a stale alias fails here, not by luck.

// seededRun returns n records in internal-key order: user keys drawn
// from a space of n (so some repeat, as versions), sequence numbers
// from base up, values of valLen half-compressible bytes.
func seededRun(seed int64, n, valLen int, base kv.Seq) (keys, vals [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("user%08d", rng.Intn(n))
		keys = append(keys, kv.MakeInternalKey([]byte(u), base+kv.Seq(i), kv.KindSet))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.CompareInternal(keys[i], keys[j]) < 0 })
	for range keys {
		v := make([]byte, valLen)
		rng.Read(v[:valLen/2])
		vals = append(vals, v)
	}
	return keys, vals
}

func fileBytes(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestWriterBytesPinned: the hashes were computed at the commit before
// the writer reused any buffer; a table of two seeded sequences must
// still come out byte for byte the same.
func TestWriterBytesPinned(t *testing.T) {
	for _, c := range []struct {
		compress bool
		want     string
	}{
		{false, "e556635c3bfd84880c8b3754a2bf692d002bde366ffab516a23306e994caad26"},
		{true, "b030522a3492ba828f1c4d15891ec79e1ad90c8b0a7c8caf986eddf2dd549be9"},
	} {
		fs := vfs.NewMemFS()
		tb, err := Create(fs, "pin.mst", 1, 1<<20, Options{Compression: c.compress})
		if err != nil {
			t.Fatal(err)
		}
		for s, n := range []int{600, 150} {
			keys, vals := seededRun(int64(41+s), n, 300, kv.Seq(1+1000*s))
			if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, keys, vals)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(fileBytes(t, fs, "pin.mst"))); got != c.want {
			t.Errorf("compression %v: file hashes to %s, pinned %s", c.compress, got, c.want)
		}
		tb.Close()
	}
}

// TestWriterBloomMatchesBuild: the filter the writer derives from the
// hashes it kept is the one bloom.Build makes from the keys themselves.
func TestWriterBloomMatchesBuild(t *testing.T) {
	for _, bits := range []int{0, 5, 14} {
		fs := vfs.NewMemFS()
		tb, err := Create(fs, "bloom.mst", 1, 1<<20, Options{BitsPerKey: bits})
		if err != nil {
			t.Fatal(err)
		}
		keys, vals := seededRun(7, 2000, 16, 1)
		if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, keys, vals)); err != nil {
			t.Fatal(err)
		}
		var users [][]byte
		for _, k := range keys {
			if u := kv.UserKey(k); len(users) == 0 || !bytes.Equal(u, users[len(users)-1]) {
				users = append(users, u)
			}
		}
		if len(users) == len(keys) {
			t.Fatal("the seeded run has no repeated user key")
		}
		want := bloom.Build(users, Options{BitsPerKey: bits}.bits())
		if got := tb.SeqMetaAt(0).Bloom; !bytes.Equal(got, want) {
			t.Errorf("bits %d: writer's filter (%d bytes) differs from bloom.Build's (%d bytes)", bits, len(got), len(want))
		}
		tb.Close()
	}
}

// TestEmptyUserKeyReachesBloom: the empty user key is a key like any
// other, also when it opens a sequence.
func TestEmptyUserKeyReachesBloom(t *testing.T) {
	tb := mustCreate(t, vfs.NewMemFS(), "1.mst")
	defer tb.Close()
	keys := [][]byte{kv.MakeInternalKey(nil, 2, kv.KindSet), kv.MakeInternalKey([]byte("a"), 1, kv.KindSet)}
	vals := [][]byte{[]byte("empty"), []byte("a")}
	if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, keys, vals)); err != nil {
		t.Fatal(err)
	}
	if !tb.SeqMetaAt(0).Bloom.MayContain(nil) {
		t.Fatal("the sequence's filter does not hold its empty user key")
	}
	if v, _, _, found, err := tb.Get(nil, kv.MaxSeq); err != nil || !found || string(v) != "empty" {
		t.Fatalf("Get of the empty key: %q found=%v err=%v", v, found, err)
	}
}

// windowedTable is a three-sequence table, each sequence several
// read-ahead windows long, with the sorted model of its records.
type windowedTable struct {
	tb         *Table
	keys, vals [][]byte
	order      []int // record i of the table is keys[order[i]]
}

func newWindowedTable(t *testing.T, fs vfs.FS, name string, seed int64, opt Options) *windowedTable {
	t.Helper()
	tb, err := Create(fs, name, uint64(seed), 4<<20, opt)
	if err != nil {
		t.Fatal(err)
	}
	w := &windowedTable{tb: tb}
	for s := 0; s < 3; s++ {
		ks, vs := seededRun(seed+int64(s), 400, 700, kv.Seq(1+1000*s))
		if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs)); err != nil {
			t.Fatal(err)
		}
		if n := tb.SeqMetaAt(s).DataLen; n < 3*readaheadSize {
			t.Fatalf("sequence %d holds %d bytes, under three windows", s, n)
		}
		w.keys, w.vals = append(w.keys, ks...), append(w.vals, vs...)
	}
	w.order = make([]int, len(w.keys))
	for i := range w.order {
		w.order[i] = i
	}
	sort.Slice(w.order, func(a, b int) bool { return kv.CompareInternal(w.keys[w.order[a]], w.keys[w.order[b]]) < 0 })
	return w
}

// at checks that it stands on record i of the table, or is exhausted
// when i is out of range.
func (w *windowedTable) at(t *testing.T, it iterator.Iterator, step string, i int) {
	t.Helper()
	if i < 0 || i >= len(w.keys) {
		if it.Valid() {
			t.Fatalf("%s: valid at %q, want exhausted", step, it.Key())
		}
		return
	}
	if !it.Valid() {
		t.Fatalf("%s: exhausted (err %v), want record %d", step, it.Err(), i)
	}
	if k, v := w.keys[w.order[i]], w.vals[w.order[i]]; !bytes.Equal(it.Key(), k) || !bytes.Equal(it.Value(), v) {
		t.Fatalf("%s: at %s, want record %d = %s (values equal: %v)", step,
			kv.InternalKeyString(it.Key()), i, kv.InternalKeyString(k), bytes.Equal(it.Value(), v))
	}
}

// TestWindowedIteration walks a three-sequence table, each sequence
// several read-ahead windows long, through the merge of its sequence
// iterators: forward, backward, and seeks interleaved with steps in both
// directions, against the sorted model.  Without a cache every block is
// served from the window the iterator refills in place.  Then iterators
// over two tables of different content are opened, moved and closed in
// turn, so the pooled windows one hands back are the ones the next
// refills (poisoned in between under -tags invariants).
func TestWindowedIteration(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", withCache), func(t *testing.T) {
			var opt Options
			if withCache {
				opt.Cache = cache.New(64 << 10) // a window's worth: it evicts throughout
			}
			fs := vfs.NewMemFS()
			w := newWindowedTable(t, fs, "w.mst", 90, opt)
			defer w.tb.Close()
			loans := WindowsOnLoan()

			it := w.tb.NewIterAt(3)
			i := 0
			for it.First(); i < len(w.keys); it.Next() {
				w.at(t, it, "forward", i)
				i++
			}
			w.at(t, it, "forward end", i)
			i = len(w.keys) - 1
			for it.Last(); i >= 0; it.Prev() {
				w.at(t, it, "backward", i)
				i--
			}
			w.at(t, it, "backward end", i)

			rng := rand.New(rand.NewSource(5))
			for round := 0; round < 300; round++ {
				i = rng.Intn(len(w.keys))
				if rng.Intn(2) == 0 {
					it.Seek(w.keys[w.order[i]])
				} else {
					it.SeekForPrev(w.keys[w.order[i]])
				}
				w.at(t, it, "seek", i)
				for steps := rng.Intn(40); steps > 0 && i >= 0 && i < len(w.keys); steps-- {
					if rng.Intn(3) == 0 {
						it.Prev()
						i--
					} else {
						it.Next()
						i++
					}
					w.at(t, it, "step", i)
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if invariants.Enabled && WindowsOnLoan() != loans+3 {
				t.Fatalf("an open iterator over three sequences holds %d windows", WindowsOnLoan()-loans)
			}
			it.Close()
			if it.Valid() || it.Key() != nil || it.Value() != nil {
				t.Fatal("a closed iterator still stands on a record")
			}
			it.Close() // and closing it again gives nothing back twice

			other := newWindowedTable(t, fs, "other.mst", 190, opt)
			defer other.tb.Close()
			for round := 0; round < 40; round++ {
				for _, w := range []*windowedTable{w, other} {
					// Merges and scans alike: both kinds of iterator borrow.
					var it iterator.Iterator
					if round%2 == 0 {
						it = w.tb.NewIter()
					} else {
						it = w.tb.NewIterAt(3)
					}
					i := rng.Intn(len(w.keys))
					it.Seek(w.keys[w.order[i]])
					for steps := 0; steps < 200 && i <= len(w.keys); steps++ {
						w.at(t, it, "reopened", i)
						it.Next()
						i++
					}
					if err := it.Err(); err != nil {
						t.Fatal(err)
					}
					it.Close()
				}
			}
			if invariants.Enabled && WindowsOnLoan() != loans {
				t.Fatalf("%d windows still on loan after every iterator was closed", WindowsOnLoan()-loans)
			}
		})
	}
}

// readCall is one ReadAt a recordingFS saw.
type readCall struct {
	off int64
	n   int
}

// recordingFS notes the offset and length of every ReadAt on the files
// created through it.
type recordingFS struct {
	vfs.FS
	reads *[]readCall
}

func (fs recordingFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	return recordingFile{f, fs.reads}, err
}

type recordingFile struct {
	vfs.File
	reads *[]readCall
}

func (f recordingFile) ReadAt(p []byte, off int64) (int, error) {
	*f.reads = append(*f.reads, readCall{off, len(p)})
	return f.File.ReadAt(p, off)
}

// TestMergeIterLeavesCacheAlone: the iterators of the merges and the
// tools (NewIter, SeqIter) read a table through the block cache without
// inserting into it, a user's scan (NewIterAt) fills it as before, and
// neither asks the device for anything but what it asked before: the
// (offset, length) list of every pass is pinned, by its length and a
// hash, as computed at the commit before merges stopped filling.
func TestMergeIterLeavesCacheAlone(t *testing.T) {
	var reads []readCall
	c := cache.New(8 << 20) // holds the whole table
	w := newWindowedTable(t, recordingFS{vfs.NewMemFS(), &reads}, "m.mst", 90, Options{Cache: c})
	defer w.tb.Close()
	drain := func(it iterator.Iterator) {
		t.Helper()
		n := 0
		for it.First(); it.Valid(); it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if n == 0 {
			t.Fatal("the pass saw no record")
		}
	}
	// pass runs one cold-cache pass and checks its device reads against
	// the pinned list.
	pass := func(name string, wantReads int, wantHash string, run func()) (fills int64) {
		t.Helper()
		w.tb.EvictBlocks()
		reads = reads[:0]
		before, _ := c.Traffic()
		run()
		after, _ := c.Traffic()
		h := sha256.New()
		for _, r := range reads {
			fmt.Fprintf(h, "%d+%d\n", r.off, r.n)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); len(reads) != wantReads || got != wantHash {
			t.Errorf("%s: %d device reads hashing to %s, pinned %d and %s", name, len(reads), got, wantReads, wantHash)
		}
		return after - before
	}
	const (
		fullReads, fullHash   = 30, "416fb265d3c0372fb0843c324031a4618b584792ad90fdac2afc1875bd67e2e3"
		seqReads, seqHash     = 30, "b15d20f39e9e037cb7f8f009821d757d534494d6d0da07194ca5b70e58d92b36"
		afterReads, afterHash = 31, "f27d3f7a200a9aea3e08bd3ca875b1e13ddc40f0860ecbcf4733d69bf413a483"
	)

	if fills := pass("NewIter", fullReads, fullHash, func() { drain(w.tb.NewIter()) }); fills != 0 || c.Used() != 0 {
		t.Errorf("a NewIter pass inserted %d blocks, %d bytes cached", fills, c.Used())
	}
	if fills := pass("SeqIter", seqReads, seqHash, func() {
		for s := 0; s < 3; s++ {
			drain(w.tb.SeqIter(s))
		}
	}); fills != 0 || c.Used() != 0 {
		t.Errorf("the SeqIter passes inserted %d blocks, %d bytes cached", fills, c.Used())
	}

	// A user's Get caches the first block of the newest sequence; the
	// merge iterator is served that block from the cache and starts its
	// device reads behind it.
	var cached readCall
	newest := w.tb.SeqMetaAt(2)
	if fills := pass("NewIter after Get", afterReads, afterHash, func() {
		if _, _, _, found, err := w.tb.Get(kv.UserKey(newest.Smallest), kv.MaxSeq); err != nil || !found {
			t.Fatalf("Get: found=%v err=%v", found, err)
		}
		if len(reads) != 1 || reads[0].off != int64(newest.DataOff) {
			t.Fatalf("the Get read %v, want one block at %d", reads, newest.DataOff)
		}
		cached = reads[0]
		used := c.Used()
		drain(w.tb.NewIter())
		if c.Used() != used {
			t.Errorf("the pass moved the cached bytes from %d to %d", used, c.Used())
		}
	}); fills != 1 {
		t.Errorf("%d blocks inserted, want the Get's one", fills)
	}
	for _, r := range reads[1:] {
		if r.off < cached.off+int64(cached.n) && cached.off < r.off+int64(r.n) {
			t.Errorf("device read [%d,+%d) covers the cached block [%d,+%d)", r.off, r.n, cached.off, cached.n)
		}
	}

	// The same pass as a user's scan asks the device for the same bytes
	// and leaves every block it read in the cache.
	fills := pass("NewIterAt", fullReads, fullHash, func() { drain(w.tb.NewIterAt(3)) })
	if fills == 0 || c.Used() < w.tb.DataSize()*9/10 {
		t.Errorf("a user scan of %d data bytes inserted %d blocks, %d bytes cached", w.tb.DataSize(), fills, c.Used())
	}
}

// discardFS is a device that keeps nothing, so an allocation count over
// it is the table layer's own and not the in-memory file system's.
type discardFS struct{ vfs.FS }

func (discardFS) Create(string) (vfs.File, error) { return discardFile{}, nil }

type discardFile struct{ vfs.File }

func (discardFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Sync() error                            { return nil }
func (discardFile) Close() error                           { return nil }

// TestTableAppendAllocs is the allocation gate of the write path's
// innermost layer: appending a node's worth (Ct = 1 MiB) of 1 KiB records
// as one sequence costs allocations per sequence and per doubling of its
// index, not per record and not per 4 KiB block.
func TestTableAppendAllocs(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertions box their arguments once per record")
	}
	const records = 1024
	keys, vals := seededRun(1, records, 1024, 1)
	src := iterator.NewSlice(kv.CompareInternal, keys, vals)
	allocs := testing.AllocsPerRun(20, func() {
		tb, err := Create(discardFS{}, "gate.mst", 1, 4<<20, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := tb.Append(src); err != nil || res.Entries != records {
			t.Fatalf("append: %+v, %v", res, err)
		}
	})
	t.Logf("%.0f allocations, %.4f per record", allocs, allocs/records)
	// The writers come from a sync.Pool, which drops some of what is put
	// back under the race detector.
	limit := 0.05
	if raceEnabled {
		limit = 0.10
	}
	if perRecord := allocs / records; perRecord > limit {
		t.Errorf("Append of %d records allocates %.0f times, %.3f per record; want <= %.2f", records, allocs, perRecord, limit)
	}
}
