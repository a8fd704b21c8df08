package iterator

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sliceOf(keys ...string) *Slice {
	var ks, vs [][]byte
	for _, k := range keys {
		ks = append(ks, []byte(k))
		vs = append(vs, []byte("v:"+k))
	}
	return NewSlice(bytes.Compare, ks, vs)
}

func collect(it Iterator) []string {
	var out []string
	for it.First(); it.Valid(); it.Next() {
		out = append(out, string(it.Key()))
	}
	return out
}

func TestSliceIterator(t *testing.T) {
	s := sliceOf("a", "c", "e")
	if got := collect(s); fmt.Sprint(got) != "[a c e]" {
		t.Fatalf("collect: %v", got)
	}
	s.Seek([]byte("b"))
	if !s.Valid() || string(s.Key()) != "c" {
		t.Fatalf("seek b: %q", s.Key())
	}
	if string(s.Value()) != "v:c" {
		t.Fatalf("value: %q", s.Value())
	}
	s.Seek([]byte("f"))
	if s.Valid() {
		t.Fatal("seek past end should invalidate")
	}
	s.Seek([]byte("a"))
	if !s.Valid() || string(s.Key()) != "a" {
		t.Fatal("seek exact first")
	}
}

func TestEmptyIterator(t *testing.T) {
	var e Empty
	e.First()
	if e.Valid() || e.Key() != nil || e.Err() != nil {
		t.Fatal("empty iterator misbehaves")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMergingBasic(t *testing.T) {
	m := NewMerging(bytes.Compare,
		sliceOf("a", "d", "g"),
		sliceOf("b", "e", "h"),
		sliceOf("c", "f", "i"),
	)
	got := collect(m)
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge: %v", got)
	}
}

func TestMergingWithEmptyChildren(t *testing.T) {
	m := NewMerging(bytes.Compare, Empty{}, sliceOf("b"), Empty{}, sliceOf("a"))
	got := collect(m)
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("merge: %v", got)
	}
	m2 := NewMerging(bytes.Compare, Empty{}, Empty{})
	if got := collect(m2); got != nil {
		t.Fatalf("all-empty merge: %v", got)
	}
	m3 := NewMerging(bytes.Compare)
	if got := collect(m3); got != nil {
		t.Fatalf("no-children merge: %v", got)
	}
}

func TestMergingTieBreakByOrder(t *testing.T) {
	// Children positioned at equal keys: earlier child wins.
	a := NewSlice(bytes.Compare, [][]byte{[]byte("k")}, [][]byte{[]byte("newer")})
	b := NewSlice(bytes.Compare, [][]byte{[]byte("k")}, [][]byte{[]byte("older")})
	m := NewMerging(bytes.Compare, a, b)
	m.First()
	if string(m.Value()) != "newer" {
		t.Fatalf("tie break: got %q", m.Value())
	}
	m.Next()
	if string(m.Value()) != "older" {
		t.Fatalf("second: got %q", m.Value())
	}
	m.Next()
	if m.Valid() {
		t.Fatal("should exhaust")
	}
}

func TestMergingSeek(t *testing.T) {
	m := NewMerging(bytes.Compare,
		sliceOf("a", "d", "g"),
		sliceOf("b", "e", "h"),
	)
	m.Seek([]byte("d"))
	var got []string
	for ; m.Valid(); m.Next() {
		got = append(got, string(m.Key()))
	}
	if fmt.Sprint(got) != "[d e g h]" {
		t.Fatalf("seek d: %v", got)
	}
	m.Seek([]byte("z"))
	if m.Valid() {
		t.Fatal("seek past end")
	}
	// Re-seek backwards is allowed (children re-seek).
	m.Seek([]byte("a"))
	if !m.Valid() || string(m.Key()) != "a" {
		t.Fatal("re-seek to start")
	}
}

func TestMergingLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var all []string
	var kids []Iterator
	for c := 0; c < 10; c++ {
		n := rng.Intn(200)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%08d", rng.Intn(1000000))
		}
		sort.Strings(keys)
		// Dedup within a child (Slice requires ascending, dups across
		// children are fine).
		uniq := keys[:0]
		for i, k := range keys {
			if i == 0 || k != keys[i-1] {
				uniq = append(uniq, k)
			}
		}
		all = append(all, uniq...)
		kids = append(kids, sliceOf(uniq...))
	}
	sort.Strings(all)
	m := NewMerging(bytes.Compare, kids...)
	got := collect(m)
	if len(got) != len(all) {
		t.Fatalf("len %d want %d", len(got), len(all))
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("at %d: %q != %q", i, got[i], all[i])
		}
	}
}

func TestMergingPropertySortedOutput(t *testing.T) {
	f := func(a, b, c []uint16) bool {
		mk := func(xs []uint16) *Slice {
			ss := make([]string, len(xs))
			for i, x := range xs {
				ss[i] = fmt.Sprintf("%05d", x)
			}
			sort.Strings(ss)
			uniq := ss[:0]
			for i, s := range ss {
				if i == 0 || s != ss[i-1] {
					uniq = append(uniq, s)
				}
			}
			return sliceOf(uniq...)
		}
		m := NewMerging(bytes.Compare, mk(a), mk(b), mk(c))
		prev := ""
		n := 0
		for m.First(); m.Valid(); m.Next() {
			k := string(m.Key())
			if prev != "" && k < prev {
				return false
			}
			prev = k
			n++
		}
		return m.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerging8Way(b *testing.B) {
	var kids []Iterator
	for c := 0; c < 8; c++ {
		keys := make([]string, 1000)
		for i := range keys {
			keys[i] = fmt.Sprintf("%03d%08d", c, i)
		}
		kids = append(kids, sliceOf(keys...))
	}
	m := NewMerging(bytes.Compare, kids...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for m.First(); m.Valid(); m.Next() {
			n++
		}
		if n != 8000 {
			b.Fatal(n)
		}
	}
}

func TestSliceReverse(t *testing.T) {
	s := sliceOf("a", "c", "e")
	s.Last()
	if !s.Valid() || string(s.Key()) != "e" {
		t.Fatalf("last: %q", s.Key())
	}
	s.Prev()
	if string(s.Key()) != "c" {
		t.Fatalf("prev: %q", s.Key())
	}
	s.Prev()
	s.Prev()
	if s.Valid() {
		t.Fatal("prev past front")
	}
	s.SeekForPrev([]byte("d"))
	if string(s.Key()) != "c" {
		t.Fatalf("seekforprev d: %q", s.Key())
	}
	s.SeekForPrev([]byte("c"))
	if string(s.Key()) != "c" {
		t.Fatalf("seekforprev exact: %q", s.Key())
	}
	s.SeekForPrev([]byte("z"))
	if string(s.Key()) != "e" {
		t.Fatalf("seekforprev past end: %q", s.Key())
	}
	s.SeekForPrev([]byte("A"))
	if s.Valid() {
		t.Fatal("seekforprev before all")
	}
}

func TestMergingReverse(t *testing.T) {
	m := NewMerging(bytes.Compare,
		sliceOf("a", "d", "g"),
		sliceOf("b", "e", "h"),
		sliceOf("c", "f", "i"),
	)
	var got []string
	for m.Last(); m.Valid(); m.Prev() {
		got = append(got, string(m.Key()))
	}
	if fmt.Sprint(got) != "[i h g f e d c b a]" {
		t.Fatalf("reverse merge: %v", got)
	}
	m.SeekForPrev([]byte("e"))
	got = nil
	for ; m.Valid(); m.Prev() {
		got = append(got, string(m.Key()))
	}
	if fmt.Sprint(got) != "[e d c b a]" {
		t.Fatalf("seekforprev e: %v", got)
	}
}

func TestMergingDirectionSwitch(t *testing.T) {
	m := NewMerging(bytes.Compare,
		sliceOf("a", "d", "g"),
		sliceOf("b", "e", "h"),
	)
	m.Seek([]byte("d"))
	if string(m.Key()) != "d" {
		t.Fatalf("seek: %q", m.Key())
	}
	// forward -> backward
	m.Prev()
	if string(m.Key()) != "b" {
		t.Fatalf("prev after seek: %q", m.Key())
	}
	m.Prev()
	if string(m.Key()) != "a" {
		t.Fatalf("prev: %q", m.Key())
	}
	// backward -> forward
	m.Next()
	if string(m.Key()) != "b" {
		t.Fatalf("next after prev: %q", m.Key())
	}
	m.Next()
	if string(m.Key()) != "d" {
		t.Fatalf("next: %q", m.Key())
	}
	// zig-zag stress against a reference.
	keys := []string{"a", "b", "d", "e", "g", "h"}
	pos := 2 // at "d"
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 200; step++ {
		if rng.Intn(2) == 0 {
			m.Next()
			pos++
		} else {
			if pos >= len(keys) {
				break // iterator exhausted; reference can't recover either
			}
			m.Prev()
			pos--
		}
		if pos < 0 || pos >= len(keys) {
			if m.Valid() {
				t.Fatalf("step %d: valid at pos %d (%q)", step, pos, m.Key())
			}
			break
		}
		if !m.Valid() || string(m.Key()) != keys[pos] {
			t.Fatalf("step %d: %q want %q", step, m.Key(), keys[pos])
		}
	}
}

func TestMergingReverseLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var all []string
	var kids []Iterator
	for c := 0; c < 6; c++ {
		n := 100 + rng.Intn(100)
		set := map[string]bool{}
		for i := 0; i < n; i++ {
			set[fmt.Sprintf("%06d", rng.Intn(100000))] = true
		}
		var ks []string
		for k := range set {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		all = append(all, ks...)
		kids = append(kids, sliceOf(ks...))
	}
	sort.Strings(all)
	m := NewMerging(bytes.Compare, kids...)
	i := len(all)
	for m.Last(); m.Valid(); m.Prev() {
		i--
		if string(m.Key()) != all[i] {
			t.Fatalf("at %d: %q want %q", i, m.Key(), all[i])
		}
	}
	if i != 0 {
		t.Fatalf("stopped %d early", i)
	}
}

// TestMergingBackwardPositioningAllocs: positioning backward resolves the
// children's reverse methods once per iterator, not once per call.
func TestMergingBackwardPositioningAllocs(t *testing.T) {
	var kids []Iterator
	for c := 0; c < 8; c++ {
		var ks []string
		for i := 0; i < 64; i++ {
			ks = append(ks, fmt.Sprintf("%04d", i*8+c))
		}
		kids = append(kids, sliceOf(ks...))
	}
	m := NewMerging(bytes.Compare, kids...)
	target := []byte("0300")
	allocs := testing.AllocsPerRun(100, func() {
		m.SeekForPrev(target)
		m.Prev()
		if string(m.Key()) != "0299" {
			t.Fatalf("at %q, want 0299", m.Key())
		}
	})
	if allocs != 0 {
		t.Errorf("SeekForPrev + Prev over 8 children allocates %.0f times, want 0", allocs)
	}
}

// forwardOnly hides a child's reverse methods, as the merge filters do.
type forwardOnly struct{ Iterator }

// TestMergingForwardOnlyChildPanicsOnBackwardCall: a merge over a child
// that cannot run backward builds and runs forward (every compaction is
// one); the first backward call panics.
func TestMergingForwardOnlyChildPanicsOnBackwardCall(t *testing.T) {
	m := NewMerging(bytes.Compare, sliceOf("a", "c"), forwardOnly{sliceOf("b", "d")})
	var got []string
	for m.First(); m.Valid(); m.Next() {
		got = append(got, string(m.Key()))
	}
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("forward merge: %v", got)
	}
	m.Seek([]byte("c"))
	for name, call := range map[string]func(){
		"Last": m.Last, "SeekForPrev": func() { m.SeekForPrev([]byte("c")) }, "Prev": m.Prev,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over a forward-only child did not panic", name)
				}
			}()
			call()
		}()
	}
}
