package kv

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPackUnpackTrailer(t *testing.T) {
	cases := []struct {
		seq  Seq
		kind Kind
	}{
		{0, KindDelete},
		{0, KindSet},
		{1, KindSet},
		{MaxSeq, KindSet},
		{MaxSeq, KindDelete},
		{123456789, KindSet},
	}
	for _, c := range cases {
		s, k := UnpackTrailer(PackTrailer(c.seq, c.kind))
		if s != c.seq || k != c.kind {
			t.Errorf("round trip (%d,%v) got (%d,%v)", c.seq, c.kind, s, k)
		}
	}
}

func TestPackTrailerQuick(t *testing.T) {
	f := func(seq uint64, kindBit bool) bool {
		seq &= uint64(MaxSeq)
		kind := KindDelete
		if kindBit {
			kind = KindSet
		}
		s, k := UnpackTrailer(PackTrailer(Seq(seq), kind))
		return s == Seq(seq) && k == kind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakeParseInternalKey(t *testing.T) {
	ik := MakeInternalKey([]byte("hello"), 42, KindSet)
	u, s, k, ok := ParseInternalKey(ik)
	if !ok {
		t.Fatal("parse failed")
	}
	if string(u) != "hello" || s != 42 || k != KindSet {
		t.Fatalf("got %q %d %v", u, s, k)
	}
	if string(UserKey(ik)) != "hello" {
		t.Fatalf("UserKey got %q", UserKey(ik))
	}
	if SeqOf(ik) != 42 {
		t.Fatalf("SeqOf got %d", SeqOf(ik))
	}
}

func TestParseInternalKeyErrors(t *testing.T) {
	if _, _, _, ok := ParseInternalKey([]byte("short")); ok {
		t.Error("short key parsed")
	}
	bad := MakeInternalKey([]byte("k"), 1, Kind(9))
	if _, _, _, ok := ParseInternalKey(bad); ok {
		t.Error("unknown kind parsed")
	}
	// Empty user key with a valid trailer is legal.
	ik := MakeInternalKey(nil, 7, KindDelete)
	u, s, k, ok := ParseInternalKey(ik)
	if !ok || len(u) != 0 || s != 7 || k != KindDelete {
		t.Errorf("empty ukey parse: %v %q %d %v", ok, u, s, k)
	}
}

func TestCompareInternalOrdering(t *testing.T) {
	// Same user key: higher seq sorts first.
	a := MakeInternalKey([]byte("k"), 10, KindSet)
	b := MakeInternalKey([]byte("k"), 5, KindSet)
	if CompareInternal(a, b) >= 0 {
		t.Error("newer seq should sort before older")
	}
	// Same seq: KindSet (1) sorts before KindDelete (0).
	c := MakeInternalKey([]byte("k"), 5, KindSet)
	d := MakeInternalKey([]byte("k"), 5, KindDelete)
	if CompareInternal(c, d) >= 0 {
		t.Error("set should sort before delete at equal seq")
	}
	// Different user keys dominate.
	e := MakeInternalKey([]byte("a"), 1, KindSet)
	f := MakeInternalKey([]byte("b"), 100, KindSet)
	if CompareInternal(e, f) >= 0 {
		t.Error("user key must dominate")
	}
	if CompareInternal(a, a) != 0 {
		t.Error("key not equal to itself")
	}
}

func TestCompareInternalSortConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys [][]byte
	for i := 0; i < 500; i++ {
		u := make([]byte, 1+rng.Intn(6))
		for j := range u {
			u[j] = byte('a' + rng.Intn(4))
		}
		keys = append(keys, MakeInternalKey(u, Seq(rng.Intn(100)), Kind(rng.Intn(2))))
	}
	sort.Slice(keys, func(i, j int) bool { return CompareInternal(keys[i], keys[j]) < 0 })
	for i := 1; i < len(keys); i++ {
		if CompareInternal(keys[i-1], keys[i]) > 0 {
			t.Fatalf("not sorted at %d", i)
		}
		ua, ub := UserKey(keys[i-1]), UserKey(keys[i])
		if bytes.Equal(ua, ub) && SeqOf(keys[i-1]) < SeqOf(keys[i]) {
			t.Fatalf("within user key %q: seq %d before %d", ua, SeqOf(keys[i-1]), SeqOf(keys[i]))
		}
	}
}

func TestAppendInternalKeyReuse(t *testing.T) {
	buf := make([]byte, 0, 64)
	buf = AppendInternalKey(buf, []byte("x"), 1, KindSet)
	n := len(buf)
	buf = AppendInternalKey(buf, []byte("y"), 2, KindDelete)
	u, s, k, ok := ParseInternalKey(buf[n:])
	if !ok || string(u) != "y" || s != 2 || k != KindDelete {
		t.Fatalf("second key corrupt: %v %q %d %v", ok, u, s, k)
	}
}

func TestInternalKeyString(t *testing.T) {
	s := InternalKeyString(MakeInternalKey([]byte("k"), 3, KindSet))
	if s != `"k"@3:set` {
		t.Errorf("got %s", s)
	}
	if InternalKeyString([]byte{1}) == "" {
		t.Error("bad key should still render")
	}
}

func TestRangeBasics(t *testing.T) {
	var empty Range
	if !empty.Empty() || empty.Contains([]byte("a")) {
		t.Error("zero range must be empty and contain nothing")
	}
	r := MakeRange([]byte("m"), []byte("c")) // reversed order
	if string(r.Lo) != "c" || string(r.Hi) != "m" {
		t.Fatalf("MakeRange did not normalize: %v", r)
	}
	for _, k := range []string{"c", "f", "m"} {
		if !r.Contains([]byte(k)) {
			t.Errorf("%q should be inside %v", k, r)
		}
	}
	for _, k := range []string{"b", "n", ""} {
		if r.Contains([]byte(k)) {
			t.Errorf("%q should be outside %v", k, r)
		}
	}
}

func TestRangeOverlapsBefore(t *testing.T) {
	a := MakeRange([]byte("c"), []byte("g"))
	b := MakeRange([]byte("g"), []byte("k"))
	c := MakeRange([]byte("h"), []byte("k"))
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("touching ranges overlap (closed intervals)")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("disjoint ranges must not overlap")
	}
	if !a.Before(c) {
		t.Error("a sorts before c")
	}
	if a.Before(b) {
		t.Error("a touches b, not strictly before")
	}
	var empty Range
	if a.Overlaps(empty) || empty.Overlaps(a) || empty.Before(a) || a.Before(empty) {
		t.Error("empty range neither overlaps nor orders")
	}
}

func TestRangeExtendUnion(t *testing.T) {
	var r Range
	r = r.Extend([]byte("m"))
	if string(r.Lo) != "m" || string(r.Hi) != "m" {
		t.Fatalf("extend empty: %v", r)
	}
	r = r.Extend([]byte("c"))
	r = r.Extend([]byte("x"))
	r = r.Extend([]byte("p")) // inside, no-op
	if string(r.Lo) != "c" || string(r.Hi) != "x" {
		t.Fatalf("extend: %v", r)
	}
	u := r.Union(MakeRange([]byte("a"), []byte("b")))
	if string(u.Lo) != "a" || string(u.Hi) != "x" {
		t.Fatalf("union: %v", u)
	}
	if got := r.Union(Range{}); !bytes.Equal(got.Lo, r.Lo) || !bytes.Equal(got.Hi, r.Hi) {
		t.Error("union with empty is identity")
	}
}

func TestRangePropertyExtendContains(t *testing.T) {
	f := func(keys [][]byte, probe []byte) bool {
		var r Range
		for _, k := range keys {
			r = r.Extend(k)
		}
		for _, k := range keys {
			if !r.Contains(k) {
				return false
			}
		}
		// Union is commutative with Extend-built ranges.
		var r2 Range
		for i := len(keys) - 1; i >= 0; i-- {
			r2 = r2.Extend(keys[i])
		}
		return r.Union(r2).String() == r.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeEqualMatchesString pins Equal to the comparison it replaced:
// two ranges are equal exactly when they print the same.
func TestRangeEqualMatchesString(t *testing.T) {
	fixed := []Range{
		{},
		{Lo: []byte{}, Hi: []byte{}}, // the single empty user key
		{Lo: nil, Hi: []byte("a")},   // a nil bound prints as an empty one
		{Lo: []byte{}, Hi: []byte("a")},
		MakeRange([]byte("a"), []byte("a")),
		MakeRange([]byte("a"), []byte("b")),
		MakeRange([]byte("a\x00"), []byte("b")),
		MakeRange([]byte("a"), []byte("b\xff")),
		MakeRange([]byte(`a","b`), []byte("c")), // bytes that look like the format
	}
	rng := rand.New(rand.NewSource(16))
	key := func() []byte {
		k := make([]byte, rng.Intn(3))
		for i := range k {
			k[i] = "ab\x00\""[rng.Intn(4)]
		}
		return k
	}
	ranges := fixed
	for i := 0; i < 200; i++ {
		ranges = append(ranges, MakeRange(key(), key()))
	}
	equal := 0
	for _, a := range ranges {
		for _, b := range ranges {
			want := a.String() == b.String()
			if got := a.Equal(b); got != want {
				t.Fatalf("%v.Equal(%v) = %v, strings equal = %v", a, b, got, want)
			}
			if want {
				equal++
			}
		}
	}
	if equal <= len(ranges) {
		t.Fatalf("only %d equal pairs among %d ranges: the seeded keys never collide", equal, len(ranges))
	}
}

func TestArenaCopiesSurviveLaterCopies(t *testing.T) {
	var a Arena
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 3; round++ {
		var want, got [][]byte
		for i := 0; i < 400; i++ {
			n := rng.Intn(2000)
			if i == 100 {
				n = 3 * arenaChunk // larger than any chunk the arena holds
			}
			b := make([]byte, n)
			rng.Read(b)
			want = append(want, b)
			got = append(got, a.Copy(b))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d: copy %d (%d bytes) changed under later copies", round, i, len(want[i]))
			}
			if len(got[i]) != cap(got[i]) {
				t.Fatalf("round %d: copy %d has spare capacity into its neighbour", round, i)
			}
		}
		a.Reset()
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		for i := 0; i < 1000; i++ {
			a.Copy(nil)
			a.Copy([]byte("0123456789abcdef"))
		}
	}); allocs != 0 {
		t.Fatalf("a warm arena allocated %.1f times for 2000 small copies", allocs)
	}
}
