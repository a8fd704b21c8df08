package table

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"iamdb/internal/cache"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/vfs"
)

const testCap = 4 << 20

func kvIter(seq kv.Seq, keys ...string) iterator.Iterator {
	sort.Strings(keys)
	var ks, vs [][]byte
	for _, k := range keys {
		ks = append(ks, kv.MakeInternalKey([]byte(k), seq, kv.KindSet))
		vs = append(vs, []byte("val:"+k))
	}
	return iterator.NewSlice(kv.CompareInternal, ks, vs)
}

func mustCreate(t *testing.T, fs vfs.FS, name string) *Table {
	t.Helper()
	tb, err := Create(fs, name, 1, testCap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestCreateAppendGet(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	res, err := tb.Append(kvIter(10, "apple", "banana", "cherry"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 3 {
		t.Fatalf("appended %d", res.Entries)
	}
	if res.Bytes <= 0 {
		t.Fatalf("result %+v", res)
	}
	if tb.NumSeqs() != 1 || tb.Entries() != 3 {
		t.Fatalf("seqs=%d entries=%d", tb.NumSeqs(), tb.Entries())
	}
	v, kind, seq, found, err := tb.Get([]byte("banana"), kv.MaxSeq)
	if err != nil || !found {
		t.Fatalf("get: %v found=%v", err, found)
	}
	if string(v) != "val:banana" || kind != kv.KindSet || seq != 10 {
		t.Fatalf("got %q %v %d", v, kind, seq)
	}
	if _, _, _, found, _ := tb.Get([]byte("durian"), kv.MaxSeq); found {
		t.Fatal("missing key found")
	}
}

func TestMultipleSequencesNewestWins(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	tb.Append(kvIter(10, "k1", "k2", "k3"))
	// Newer sequence overwrites k2.
	ks := [][]byte{kv.MakeInternalKey([]byte("k2"), 20, kv.KindSet)}
	vs := [][]byte{[]byte("newer")}
	tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs))

	if tb.NumSeqs() != 2 {
		t.Fatalf("seqs=%d", tb.NumSeqs())
	}
	v, _, seq, found, _ := tb.Get([]byte("k2"), kv.MaxSeq)
	if !found || string(v) != "newer" || seq != 20 {
		t.Fatalf("got %q@%d found=%v", v, seq, found)
	}
	// Snapshot read below the overwrite sees the old version.
	v, _, seq, found, _ = tb.Get([]byte("k2"), 15)
	if !found || string(v) != "val:k2" || seq != 10 {
		t.Fatalf("snapshot got %q@%d found=%v", v, seq, found)
	}
	// Untouched keys still served from the old sequence.
	v, _, _, found, _ = tb.Get([]byte("k1"), kv.MaxSeq)
	if !found || string(v) != "val:k1" {
		t.Fatalf("k1 got %q", v)
	}
}

func TestTombstoneVisible(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	tb.Append(kvIter(10, "k"))
	ks := [][]byte{kv.MakeInternalKey([]byte("k"), 20, kv.KindDelete)}
	tb.Append(iterator.NewSlice(kv.CompareInternal, ks, [][]byte{nil}))
	_, kind, _, found, _ := tb.Get([]byte("k"), kv.MaxSeq)
	if !found || kind != kv.KindDelete {
		t.Fatalf("tombstone: kind=%v found=%v", kind, found)
	}
}

func TestReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	tb.Append(kvIter(10, "a", "b"))
	tb.Append(kvIter(20, "c"))
	dataSize := tb.DataSize()
	tb.Close()

	tb2, err := Open(fs, "1.mst", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	if tb2.NumSeqs() != 2 || tb2.Entries() != 3 {
		t.Fatalf("reopen seqs=%d entries=%d", tb2.NumSeqs(), tb2.Entries())
	}
	if tb2.DataSize() != dataSize {
		t.Fatalf("dataEnd %d want %d", tb2.DataSize(), dataSize)
	}
	v, _, _, found, _ := tb2.Get([]byte("c"), kv.MaxSeq)
	if !found || string(v) != "val:c" {
		t.Fatalf("reopen get c: %q %v", v, found)
	}
	r := tb2.UserRange()
	if string(r.Lo) != "a" || string(r.Hi) != "c" {
		t.Fatalf("range %v", r)
	}
}

func TestIterMergesSequences(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	tb.Append(kvIter(10, "a", "c", "e"))
	tb.Append(kvIter(20, "b", "d"))
	it := tb.NewIter()
	var got []string
	for it.First(); it.Valid(); it.Next() {
		got = append(got, string(kv.UserKey(it.Key())))
	}
	if fmt.Sprint(got) != "[a b c d e]" {
		t.Fatalf("merged scan: %v", got)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	it.Close()
}

func TestSeqIterSeek(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	var keys []string
	for i := 0; i < 2000; i++ { // spans many blocks
		keys = append(keys, fmt.Sprintf("key%06d", i*2))
	}
	tb.Append(kvIter(5, keys...))
	it := tb.SeqIter(0)
	// Seek to a key between entries.
	it.Seek(kv.MakeInternalKey([]byte("key000101"), kv.MaxSeq, kv.KindSet))
	if !it.Valid() {
		t.Fatal("seek invalid")
	}
	if got := string(kv.UserKey(it.Key())); got != "key000102" {
		t.Fatalf("seek landed on %q", got)
	}
	// Walk across a block boundary.
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if want := 2000 - 51; count != want {
		t.Fatalf("walked %d want %d", count, want)
	}
	// Seek past the end.
	it.Seek(kv.MakeInternalKey([]byte("zzz"), kv.MaxSeq, kv.KindSet))
	if it.Valid() {
		t.Fatal("seek past end valid")
	}
}

func TestLargeSequenceManyBlocks(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	const n = 5000
	var ks, vs [][]byte
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < n; i++ {
		ks = append(ks, kv.MakeInternalKey([]byte(fmt.Sprintf("user%08d", i)), 1, kv.KindSet))
		vs = append(vs, val)
	}
	if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs)); err != nil {
		t.Fatal(err)
	}
	// Every key retrievable.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("user%08d", rng.Intn(n)))
		_, _, _, found, err := tb.Get(k, kv.MaxSeq)
		if err != nil || !found {
			t.Fatalf("get %s: %v %v", k, found, err)
		}
	}
	// Full scan count, and the table finds every key it yields.
	it := tb.NewIter()
	defer it.Close()
	count := 0
	for it.First(); it.Valid(); it.Next() {
		if _, _, _, found, err := tb.Get(kv.UserKey(it.Key()), kv.MaxSeq); err != nil || !found {
			t.Fatalf("own key %q unfindable: found=%v err=%v", kv.UserKey(it.Key()), found, err)
		}
		count++
	}
	if count != n {
		t.Fatalf("scan %d want %d", count, n)
	}
}

func TestAppendNoSpace(t *testing.T) {
	fs := vfs.NewMemFS()
	tb, err := Create(fs, "small.mst", 1, 64*1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ks, vs [][]byte
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 128; i++ { // 128 KiB >> 64 KiB capacity
		ks = append(ks, kv.MakeInternalKey([]byte(fmt.Sprintf("k%06d", i)), 1, kv.KindSet))
		vs = append(vs, val)
	}
	_, err = tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Table must remain intact and usable.
	if tb.NumSeqs() != 0 {
		t.Fatalf("seqs=%d after failed append", tb.NumSeqs())
	}
	if _, err := tb.Append(kvIter(2, "ok")); err != nil {
		t.Fatalf("small append after failure: %v", err)
	}
	v, _, _, found, _ := tb.Get([]byte("ok"), kv.MaxSeq)
	if !found || string(v) != "val:ok" {
		t.Fatal("table unusable after ErrNoSpace")
	}
}

func TestEmptyAppendIsNoop(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	res, err := tb.Append(iterator.Empty{})
	if err != nil || res.Entries != 0 {
		t.Fatalf("empty append: %+v %v", res, err)
	}
	if tb.NumSeqs() != 0 {
		t.Fatal("empty append created a sequence")
	}
}

func TestBlockCacheUsed(t *testing.T) {
	fs := vfs.NewMemFS()
	c := cache.New(1 << 20)
	var st vfs.IOStats
	sfs := vfs.NewStatsFS(fs, &st)
	tb, err := Create(sfs, "1.mst", 42, testCap, Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("key%05d", i))
	}
	tb.Append(kvIter(1, keys...))

	before := st.Snapshot()
	tb.Get([]byte("key00250"), kv.MaxSeq)
	mid := st.Snapshot()
	if mid.BytesRead == before.BytesRead {
		t.Fatal("first get should read from disk")
	}
	tb.Get([]byte("key00250"), kv.MaxSeq)
	after := st.Snapshot()
	if after.BytesRead != mid.BytesRead {
		t.Fatal("second get should hit cache")
	}
	if tb.ResidentBytes() == 0 {
		t.Fatal("resident bytes should be tracked")
	}
	tb.EvictBlocks()
	if tb.ResidentBytes() != 0 {
		t.Fatal("evict failed")
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	tb.Append(kvIter(1, "a"))
	tb.Close()
	f, _ := fs.Open("1.mst")
	size, _ := f.Size()
	// Clobber both footer slots: nothing valid remains to fall back to.
	f.WriteAt([]byte{0xde, 0xad}, size-10)
	f.WriteAt([]byte{0xde, 0xad}, size-footerSlot-10)
	f.Close()
	if _, err := Open(fs, "1.mst", 1, Options{}); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestTornFooterFallsBackToPreviousGeneration(t *testing.T) {
	// Two commits land in alternating footer slots.  Destroying the
	// newest slot (a torn in-flight footer write) must reopen the table
	// at the previous generation, not fail.
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	if _, err := tb.Append(kvIter(1, "a", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Append(kvIter(2, "c", "d")); err != nil {
		t.Fatal(err)
	}
	gen := tb.gen.Load() // generation of the newest commit
	tb.Close()
	f, _ := fs.Open("1.mst")
	size, _ := f.Size()
	slotOff := size - tailLen + int64(gen%2)*footerSlot
	junk := make([]byte, footerSlot)
	f.WriteAt(junk, slotOff)
	f.Close()
	re, err := Open(fs, "1.mst", 1, Options{})
	if err != nil {
		t.Fatalf("reopen after torn footer: %v", err)
	}
	defer re.Close()
	if re.NumSeqs() != 1 {
		t.Fatalf("want previous generation with 1 seq, got %d", re.NumSeqs())
	}
	if _, _, _, found, err := re.Get([]byte("a"), kv.MaxSeq); err != nil || !found {
		t.Fatalf("committed key lost: %v found=%v", err, found)
	}
}

func TestMetaNeverOverwritten(t *testing.T) {
	// Each commit's metadata must land strictly below the previous
	// copy: a torn metadata write can then never damage committed
	// state.
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	floor0 := tb.metaFloor
	if _, err := tb.Append(kvIter(1, "a")); err != nil {
		t.Fatal(err)
	}
	floor1 := tb.metaFloor
	if _, err := tb.Append(kvIter(2, "b")); err != nil {
		t.Fatal(err)
	}
	floor2 := tb.metaFloor
	tb.Close()
	if !(floor2 < floor1 && floor1 < floor0) {
		t.Fatalf("meta floors must descend: %d %d %d", floor0, floor1, floor2)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(vfs.NewMemFS(), "none.mst", 1, Options{}); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestUsedBytesBelowCapacity(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	tb.Append(kvIter(1, "a", "b", "c"))
	if tb.UsedBytes() >= tb.Capacity() {
		t.Fatalf("used %d should be far below capacity %d", tb.UsedBytes(), tb.Capacity())
	}
	if tb.UsedBytes() <= 0 {
		t.Fatal("used must be positive")
	}
}

func TestSeqDataLenAndMeta(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	tb.Append(kvIter(1, "a", "b"))
	tb.Append(kvIter(2, "c", "d", "e"))
	m0, m1 := tb.SeqMetaAt(0), tb.SeqMetaAt(1)
	if m0.Entries != 2 || m1.Entries != 3 {
		t.Fatalf("entries %d/%d", m0.Entries, m1.Entries)
	}
	if string(kv.UserKey(m1.Smallest)) != "c" || string(kv.UserKey(m1.Largest)) != "e" {
		t.Fatalf("seq1 bounds %s..%s", kv.UserKey(m1.Smallest), kv.UserKey(m1.Largest))
	}
	if m0.DataLen == 0 || m1.DataLen == 0 {
		t.Fatal("data lens must be positive")
	}
	if m1.DataOff != m0.DataLen {
		t.Fatalf("seq1 off %d want %d", m1.DataOff, m0.DataLen)
	}
}

func BenchmarkTableAppend(b *testing.B) {
	fs := vfs.NewMemFS()
	val := bytes.Repeat([]byte("v"), 1024)
	var ks, vs [][]byte
	for i := 0; i < 1000; i++ {
		ks = append(ks, kv.MakeInternalKey([]byte(fmt.Sprintf("user%010d", i)), 1, kv.KindSet))
		vs = append(vs, val)
	}
	b.SetBytes(int64(1000 * 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, _ := Create(fs, "bench.mst", 1, 16<<20, Options{})
		tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs))
		tb.Close()
	}
}

func BenchmarkTableGet(b *testing.B) {
	fs := vfs.NewMemFS()
	tb, _ := Create(fs, "bench.mst", 1, 64<<20, Options{Cache: cache.New(64 << 20)})
	var ks, vs [][]byte
	for i := 0; i < 100000; i++ {
		ks = append(ks, kv.MakeInternalKey([]byte(fmt.Sprintf("user%010d", i)), 1, kv.KindSet))
		vs = append(vs, []byte("value"))
	}
	tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs))
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("user%010d", rng.Intn(100000)))
		tb.Get(k, kv.MaxSeq)
	}
}

func TestBlockChecksumDetectsCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	var keys []string
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("key%05d", i))
	}
	tb.Append(kvIter(1, keys...))
	tb.Close()

	// Flip one byte inside the data region.
	f, _ := fs.Open("1.mst")
	var b [1]byte
	f.ReadAt(b[:], 100)
	b[0] ^= 0xFF
	f.WriteAt(b[:], 100)
	f.Close()

	tb2, err := Open(fs, "1.mst", 1, Options{})
	if err != nil {
		t.Fatal(err) // metadata untouched: open succeeds
	}
	defer tb2.Close()
	// Reading through the corrupt block must error, not return junk.
	sawErr := false
	for _, k := range keys {
		_, _, _, _, err := tb2.Get([]byte(k), kv.MaxSeq)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("wrong error type: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("corruption went undetected across all keys")
	}
	// Iterators must surface it too.
	it := tb2.NewIter()
	for it.First(); it.Valid(); it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("iterator missed the corrupt block")
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	// Highly compressible values.
	var ks, vs [][]byte
	val := bytes.Repeat([]byte("compressible-"), 40)
	for i := 0; i < 1000; i++ {
		ks = append(ks, kv.MakeInternalKey([]byte(fmt.Sprintf("key%06d", i)), 1, kv.KindSet))
		vs = append(vs, val)
	}

	write := func(name string, comp bool) *Table {
		tb, err := Create(fs, name, 1, 8<<20, Options{Compression: comp})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs)); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	plain := write("plain.mst", false)
	comp := write("comp.mst", true)
	defer plain.Close()
	defer comp.Close()

	if comp.DataSize() >= plain.DataSize()/2 {
		t.Fatalf("compression ineffective: %d vs %d", comp.DataSize(), plain.DataSize())
	}
	// Reads are transparent.
	for _, tb := range []*Table{plain, comp} {
		v, _, _, found, err := tb.Get([]byte("key000500"), kv.MaxSeq)
		if err != nil || !found || !bytes.Equal(v, val) {
			t.Fatalf("%s: get %v %v", tb.Name(), found, err)
		}
		it := tb.NewIter()
		n := 0
		for it.First(); it.Valid(); it.Next() {
			n++
		}
		if n != 1000 || it.Err() != nil {
			t.Fatalf("%s: scan %d (%v)", tb.Name(), n, it.Err())
		}
	}
	// A reader without the option still decodes compressed tables.
	comp.Close()
	re, err := Open(fs, "comp.mst", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, _, _, found, err := re.Get([]byte("key000999"), kv.MaxSeq); err != nil || !found {
		t.Fatalf("reopen compressed: %v %v", found, err)
	}
}

func TestCompressedCorruptionDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	tb, _ := Create(fs, "c.mst", 1, 4<<20, Options{Compression: true})
	var ks, vs [][]byte
	for i := 0; i < 500; i++ {
		ks = append(ks, kv.MakeInternalKey([]byte(fmt.Sprintf("k%05d", i)), 1, kv.KindSet))
		vs = append(vs, bytes.Repeat([]byte("z"), 200))
	}
	tb.Append(iterator.NewSlice(kv.CompareInternal, ks, vs))
	tb.Close()
	f, _ := fs.Open("c.mst")
	f.WriteAt([]byte{0xAA}, 50)
	f.Close()
	re, err := Open(fs, "c.mst", 1, Options{})
	if err != nil {
		return
	}
	defer re.Close()
	it := re.NewIter()
	for it.First(); it.Valid(); it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("corrupt compressed block not detected")
	}
}

func TestSeqIterReverse(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	var keys []string
	for i := 0; i < 3000; i++ { // spans many blocks
		keys = append(keys, fmt.Sprintf("key%06d", i*2))
	}
	tb.Append(kvIter(5, keys...))
	it := tb.SeqIter(0)

	it.Last()
	if !it.Valid() || string(kv.UserKey(it.Key())) != "key005998" {
		t.Fatalf("last: %q", kv.UserKey(it.Key()))
	}
	// Walk backward across many block boundaries.
	for i := 2998; i >= 2900; i-- {
		it.Prev()
		want := fmt.Sprintf("key%06d", i*2)
		if !it.Valid() || string(kv.UserKey(it.Key())) != want {
			t.Fatalf("prev at %d: %q want %s", i, kv.UserKey(it.Key()), want)
		}
	}
	// SeekForPrev between keys.
	it.SeekForPrev(kv.MakeInternalKey([]byte("key000101"), kv.MaxSeq, kv.KindSet))
	if !it.Valid() || string(kv.UserKey(it.Key())) != "key000100" {
		t.Fatalf("seekforprev: %q", kv.UserKey(it.Key()))
	}
	// Past the end.
	it.SeekForPrev(kv.MakeInternalKey([]byte("zzz"), 0, kv.KindDelete))
	if !it.Valid() || string(kv.UserKey(it.Key())) != "key005998" {
		t.Fatalf("seekforprev past end: %q", kv.UserKey(it.Key()))
	}
	// Before everything.
	it.SeekForPrev(kv.MakeInternalKey([]byte("a"), kv.MaxSeq, kv.KindSet))
	if it.Valid() {
		t.Fatal("seekforprev before all")
	}
	// Full backward walk counts every record.
	n := 0
	for it.Last(); it.Valid(); it.Prev() {
		n++
	}
	if n != 3000 {
		t.Fatalf("reverse walk saw %d", n)
	}
	// Direction switching through the merged multi-sequence iterator.
	tb.Append(kvIter(9, "key000101x"))
	m := tb.NewIter()
	m.Seek(kv.MakeInternalKey([]byte("key000101x"), kv.MaxSeq, kv.KindSet))
	if string(kv.UserKey(m.Key())) != "key000101x" {
		t.Fatalf("merged seek: %q", kv.UserKey(m.Key()))
	}
	m.Prev()
	if string(kv.UserKey(m.Key())) != "key000100" {
		t.Fatalf("merged prev: %q", kv.UserKey(m.Key()))
	}
	m.Next()
	if string(kv.UserKey(m.Key())) != "key000101x" {
		t.Fatalf("merged next after prev: %q", kv.UserKey(m.Key()))
	}
}

// hookFS runs onWrite before every WriteAt to a file it created; an error
// from onWrite fails the write.
type hookFS struct {
	vfs.FS
	onWrite func(off int64) error
}

func (h *hookFS) Create(name string) (vfs.File, error) {
	f, err := h.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return hookFile{f, h}, nil
}

type hookFile struct {
	vfs.File
	fs *hookFS
}

func (f hookFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.onWrite != nil {
		if err := f.fs.onWrite(off); err != nil {
			return 0, err
		}
	}
	return f.File.WriteAt(p, off)
}

// A sequence is readable once the metadata commit naming it is written,
// and not before: a Get beside the footer write that commits it does not
// find its keys, and when that write fails the append returns the error
// and the sequence never appears.
func TestAppendPublishesAfterCommit(t *testing.T) {
	fs := &hookFS{FS: vfs.NewMemFS()}
	tb := mustCreate(t, fs, "1.mst")
	defer tb.Close()
	if _, err := tb.Append(kvIter(10, "apple")); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("footer write failed")
	var sawUncommitted bool
	fs.onWrite = func(off int64) error {
		if off < testCap-tailLen {
			return nil // data and metadata: only the footer commits
		}
		_, _, _, found, err := tb.Get([]byte("banana"), kv.MaxSeq)
		sawUncommitted = found || err != nil
		return failed
	}
	if _, err := tb.Append(kvIter(11, "banana")); !errors.Is(err, failed) {
		t.Fatalf("append over a failing footer write: %v", err)
	}
	fs.onWrite = nil
	if sawUncommitted {
		t.Fatal("a Get during the commit read the sequence it commits")
	}
	if _, _, _, found, _ := tb.Get([]byte("banana"), kv.MaxSeq); found || tb.NumSeqs() != 1 {
		t.Fatalf("after the failed commit: banana found %v, %d sequences", found, tb.NumSeqs())
	}
	if _, err := tb.Append(kvIter(12, "cherry")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, found, _ := tb.Get([]byte("cherry"), kv.MaxSeq); !found || tb.NumSeqs() != 2 {
		t.Fatalf("the next append: cherry found %v, %d sequences", found, tb.NumSeqs())
	}
}
