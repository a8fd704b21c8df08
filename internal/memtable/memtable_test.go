package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"iamdb/internal/kv"
)

func TestAddGet(t *testing.T) {
	m := New()
	m.Add(1, kv.KindSet, []byte("a"), []byte("v1"))
	m.Add(2, kv.KindSet, []byte("b"), []byte("v2"))
	v, kind, seq, found := m.Get([]byte("a"), kv.MaxSeq)
	if !found || string(v) != "v1" || kind != kv.KindSet || seq != 1 {
		t.Fatalf("get a: %q %v %d %v", v, kind, seq, found)
	}
	if _, _, _, found := m.Get([]byte("c"), kv.MaxSeq); found {
		t.Fatal("phantom key")
	}
	if m.Count() != 2 {
		t.Fatalf("count %d", m.Count())
	}
}

func TestMVCCVersions(t *testing.T) {
	m := New()
	m.Add(10, kv.KindSet, []byte("k"), []byte("old"))
	m.Add(20, kv.KindSet, []byte("k"), []byte("new"))
	m.Add(30, kv.KindDelete, []byte("k"), nil)

	v, kind, _, found := m.Get([]byte("k"), kv.MaxSeq)
	if !found || kind != kv.KindDelete {
		t.Fatalf("latest should be tombstone, got %q %v", v, kind)
	}
	v, kind, _, found = m.Get([]byte("k"), 25)
	if !found || kind != kv.KindSet || string(v) != "new" {
		t.Fatalf("snap 25: %q %v", v, kind)
	}
	v, kind, _, found = m.Get([]byte("k"), 15)
	if !found || string(v) != "old" {
		t.Fatalf("snap 15: %q %v", v, kind)
	}
	if _, _, _, found = m.Get([]byte("k"), 5); found {
		t.Fatal("snap 5 should see nothing")
	}
}

func TestIterOrder(t *testing.T) {
	m := New()
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		m.Add(kv.Seq(i+1), kv.KindSet, []byte(k), []byte(k))
	}
	it := m.NewIter()
	var got []string
	for it.First(); it.Valid(); it.Next() {
		got = append(got, string(kv.UserKey(it.Key())))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order: %v", got)
	}
}

func TestIterVersionOrderWithinKey(t *testing.T) {
	m := New()
	m.Add(1, kv.KindSet, []byte("k"), []byte("v1"))
	m.Add(3, kv.KindSet, []byte("k"), []byte("v3"))
	m.Add(2, kv.KindSet, []byte("k"), []byte("v2"))
	it := m.NewIter()
	var seqs []kv.Seq
	for it.First(); it.Valid(); it.Next() {
		seqs = append(seqs, kv.SeqOf(it.Key()))
	}
	if fmt.Sprint(seqs) != "[3 2 1]" {
		t.Fatalf("version order: %v", seqs)
	}
}

func TestIterSeek(t *testing.T) {
	m := New()
	for i := 0; i < 100; i += 2 {
		m.Add(kv.Seq(i+1), kv.KindSet, []byte(fmt.Sprintf("k%03d", i)), nil)
	}
	it := m.NewIter()
	it.Seek(kv.MakeInternalKey([]byte("k051"), kv.MaxSeq, kv.KindSet))
	if !it.Valid() || string(kv.UserKey(it.Key())) != "k052" {
		t.Fatalf("seek: %q", kv.UserKey(it.Key()))
	}
	it.Seek(kv.MakeInternalKey([]byte("zzz"), kv.MaxSeq, kv.KindSet))
	if it.Valid() {
		t.Fatal("seek past end")
	}
}

func TestApproximateSizeGrows(t *testing.T) {
	m := New()
	if m.ApproximateSize() != 0 {
		t.Fatal("empty size nonzero")
	}
	var last int64
	for i := 0; i < 100; i++ {
		m.Add(kv.Seq(i+1), kv.KindSet, []byte(fmt.Sprintf("key%d", i)), make([]byte, 100))
		if m.ApproximateSize() <= last {
			t.Fatal("size must grow monotonically")
		}
		last = m.ApproximateSize()
	}
	if last < 100*100 {
		t.Fatalf("size %d too small", last)
	}
}

// TestConcurrentReadDuringWrite runs readers and iterator walkers beside
// the one writer, in a random key order so every insert splices into the
// middle of the list.  Count rises only after a record is linked, so a
// reader that has seen it at c must find each of the first c inserts:
// Get finds them with their values, never a key without its value, and a
// walk sees at least c records, in strictly increasing internal-key
// order.  At the end every insert is found by Get and iterated exactly
// once.  The gate runs it under -race, which also fails a second writer.
func TestConcurrentReadDuringWrite(t *testing.T) {
	const n = 5000
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
	val := func(i int) string { return fmt.Sprintf("val-%d", i) }
	order := rand.New(rand.NewSource(1)).Perm(n)
	m := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for seq, i := range order {
			m.Add(kv.Seq(seq+1), kv.KindSet, key(i), []byte(val(i)))
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := m.Count()
				if c == 0 {
					continue
				}
				i := order[rng.Intn(c)]
				if v, _, _, found := m.Get(key(i), kv.MaxSeq); !found || string(v) != val(i) {
					t.Errorf("Get(%q) after %d inserts: found=%v %q, want %q", key(i), c, found, v, val(i))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := m.Count()
			it := m.NewIter()
			var last []byte
			seen := 0
			for it.First(); it.Valid(); it.Next() {
				if last != nil && kv.CompareInternal(last, it.Key()) >= 0 {
					t.Errorf("iterator out of order during writes: %q after %q", it.Key(), last)
					return
				}
				last = append(last[:0], it.Key()...)
				seen++
			}
			if seen < c {
				t.Errorf("a walk begun after %d inserts saw %d records", c, seen)
				return
			}
		}
	}()
	wg.Wait()
	if m.Count() != n {
		t.Fatalf("count %d, want %d", m.Count(), n)
	}
	seen := make(map[string]int, n)
	it := m.NewIter()
	for it.First(); it.Valid(); it.Next() {
		seen[string(kv.UserKey(it.Key()))]++
	}
	for i := 0; i < n; i++ {
		if v, _, _, found := m.Get(key(i), kv.MaxSeq); !found || string(v) != val(i) {
			t.Fatalf("lost insert %q (found=%v v=%q)", key(i), found, v)
		}
		if c := seen[string(key(i))]; c != 1 {
			t.Fatalf("%q iterated %d times", key(i), c)
		}
	}
}

// TestApproximateSizePinned adds a fixed stream of 300 000 records, past
// the 2^18 inserts after which heightTab cycles, and requires the size
// the table reported when Add was a lock-free multi-writer insert
// (13 296 888, recorded on that implementation).  The size counts 16
// bytes per tower level, so this pins the tower heights, and with them
// every memtable's flush boundary.
func TestApproximateSizePinned(t *testing.T) {
	m := New()
	val := make([]byte, 16)
	for i := 0; i < 300000; i++ {
		m.Add(kv.Seq(i+1), kv.KindSet, []byte(fmt.Sprintf("k%06d", i%100000)), val[:i%17])
	}
	if got, want := m.ApproximateSize(), int64(13296888); got != want {
		t.Fatalf("ApproximateSize %d, want %d", got, want)
	}
}

func TestGetMatchesMapSemantics(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Del bool
	}) bool {
		m := New()
		ref := map[byte]struct {
			del bool
			seq kv.Seq
		}{}
		for i, op := range ops {
			seq := kv.Seq(i + 1)
			k := []byte{op.Key}
			if op.Del {
				m.Add(seq, kv.KindDelete, k, nil)
			} else {
				m.Add(seq, kv.KindSet, k, []byte{op.Key})
			}
			ref[op.Key] = struct {
				del bool
				seq kv.Seq
			}{op.Del, seq}
		}
		for k, want := range ref {
			_, kind, seq, found := m.Get([]byte{k}, kv.MaxSeq)
			if !found || seq != want.seq {
				return false
			}
			if want.del != (kind == kv.KindDelete) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMemtableAdd(b *testing.B) {
	m := New()
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(kv.Seq(i+1), kv.KindSet, []byte(fmt.Sprintf("user%010d", i)), val)
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := New()
	for i := 0; i < 100000; i++ {
		m.Add(kv.Seq(i+1), kv.KindSet, []byte(fmt.Sprintf("user%010d", i)), []byte("v"))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("user%010d", rng.Intn(100000))), kv.MaxSeq)
	}
}

func TestReverseIteration(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Add(kv.Seq(i+1), kv.KindSet, []byte(fmt.Sprintf("k%03d", i*2)), []byte("v"))
	}
	it := m.NewIter().(interface {
		Last()
		Prev()
		SeekForPrev([]byte)
		Valid() bool
		Key() []byte
	})
	it.Last()
	if !it.Valid() || string(kv.UserKey(it.Key())) != "k198" {
		t.Fatalf("last: %q", kv.UserKey(it.Key()))
	}
	for i := 98; i >= 0; i-- {
		it.Prev()
		want := fmt.Sprintf("k%03d", i*2)
		if !it.Valid() || string(kv.UserKey(it.Key())) != want {
			t.Fatalf("prev at %d: %q want %s", i, kv.UserKey(it.Key()), want)
		}
	}
	it.Prev()
	if it.Valid() {
		t.Fatal("prev past front")
	}
	// SeekForPrev between keys.
	it.SeekForPrev(kv.MakeInternalKey([]byte("k101"), kv.MaxSeq, kv.KindSet))
	if !it.Valid() || string(kv.UserKey(it.Key())) != "k100" {
		t.Fatalf("seekforprev: %q", kv.UserKey(it.Key()))
	}
	// Exact internal key.
	exact := kv.MakeInternalKey([]byte("k100"), 51, kv.KindSet)
	it.SeekForPrev(exact)
	if !it.Valid() || kv.SeqOf(it.Key()) != 51 {
		t.Fatalf("seekforprev exact: %v", kv.SeqOf(it.Key()))
	}
	// Before everything.
	it.SeekForPrev(kv.MakeInternalKey([]byte("a"), kv.MaxSeq, kv.KindSet))
	if it.Valid() {
		t.Fatal("seekforprev before all")
	}
}

func TestReverseEmptyMemtable(t *testing.T) {
	m := New()
	it := m.NewIter().(interface {
		Last()
		Valid() bool
	})
	it.Last()
	if it.Valid() {
		t.Fatal("last on empty")
	}
}
