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

// TestWindowedIteration walks a three-sequence table, each sequence
// several read-ahead windows long, through the merge of its sequence
// iterators: forward, backward, and seeks interleaved with steps in both
// directions, against the sorted model.  Without a cache every block is
// served from the window the iterator refills in place.
func TestWindowedIteration(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", withCache), func(t *testing.T) {
			var opt Options
			if withCache {
				opt.Cache = cache.New(64 << 10) // a window's worth: it evicts throughout
			}
			tb, err := Create(vfs.NewMemFS(), "w.mst", 1, 4<<20, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			var keys, vals [][]byte
			for s := 0; s < 3; s++ {
				ks, vs := seededRun(int64(90+s), 400, 700, kv.Seq(1+1000*s))
				if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs)); err != nil {
					t.Fatal(err)
				}
				if n := tb.SeqMetaAt(s).DataLen; n < 3*readaheadSize {
					t.Fatalf("sequence %d holds %d bytes, under three windows", s, n)
				}
				keys, vals = append(keys, ks...), append(vals, vs...)
			}
			order := make([]int, len(keys)) // the model: record i is keys[order[i]]
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return kv.CompareInternal(keys[order[a]], keys[order[b]]) < 0 })

			it := tb.NewIter().(iterator.ReverseIterator)
			defer it.Close()
			at := func(step string, i int) {
				t.Helper()
				if i < 0 || i >= len(keys) {
					if it.Valid() {
						t.Fatalf("%s: valid at %q, want exhausted", step, it.Key())
					}
					return
				}
				if !it.Valid() {
					t.Fatalf("%s: exhausted (err %v), want record %d", step, it.Err(), i)
				}
				if k, v := keys[order[i]], vals[order[i]]; !bytes.Equal(it.Key(), k) || !bytes.Equal(it.Value(), v) {
					t.Fatalf("%s: at %s, want record %d = %s (values equal: %v)", step,
						kv.InternalKeyString(it.Key()), i, kv.InternalKeyString(k), bytes.Equal(it.Value(), v))
				}
			}
			i := 0
			for it.First(); i < len(keys); it.Next() {
				at("forward", i)
				i++
			}
			at("forward end", i)
			i = len(keys) - 1
			for it.Last(); i >= 0; it.Prev() {
				at("backward", i)
				i--
			}
			at("backward end", i)

			rng := rand.New(rand.NewSource(5))
			for round := 0; round < 300; round++ {
				i = rng.Intn(len(keys))
				if rng.Intn(2) == 0 {
					it.Seek(keys[order[i]])
				} else {
					it.SeekForPrev(keys[order[i]])
				}
				at("seek", i)
				for steps := rng.Intn(40); steps > 0 && i >= 0 && i < len(keys); steps-- {
					if rng.Intn(3) == 0 {
						it.Prev()
						i--
					} else {
						it.Next()
						i++
					}
					at("step", i)
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		})
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
	if perRecord := allocs / records; perRecord > 0.05 {
		t.Errorf("Append of %d records allocates %.0f times, %.3f per record; want <= 0.05", records, allocs, perRecord)
	}
}
