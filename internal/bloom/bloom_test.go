package bloom

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(i))
	return b[:]
}

func TestNoFalseNegatives(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = key(i)
		}
		f := Build(keys, DefaultBitsPerKey)
		for i := range keys {
			if !f.MayContain(keys[i]) {
				t.Fatalf("n=%d: false negative on key %d", n, i)
			}
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	const n = 10000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	f := Build(keys, DefaultBitsPerKey)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain(key(n + 1000000 + i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// The paper quotes ~0.2% at 14 bits/key; allow generous slack.
	if rate > 0.01 {
		t.Errorf("false positive rate %.4f too high for 14 bits/key", rate)
	}
}

func TestFPRateDropsWithMoreBits(t *testing.T) {
	const n = 5000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	rate := func(bits int) float64 {
		f := Build(keys, bits)
		fp := 0
		for i := 0; i < 20000; i++ {
			if f.MayContain(key(n + 50000 + i)) {
				fp++
			}
		}
		return float64(fp) / 20000
	}
	r4, r14 := rate(4), rate(14)
	if r14 >= r4 {
		t.Errorf("14 bits (%.4f) should beat 4 bits (%.4f)", r14, r4)
	}
}

func TestEmptyAndSmallFilters(t *testing.T) {
	f := Build(nil, DefaultBitsPerKey)
	if f.MayContain([]byte("anything")) {
		// Possible (tiny filter) but should be rare; not an error by
		// contract, so only sanity-check that the call is safe.
		t.Log("empty filter matched; acceptable but unusual")
	}
	var empty Filter
	if empty.MayContain([]byte("x")) {
		t.Error("nil filter must reject")
	}
	one := Build([][]byte{[]byte("solo")}, DefaultBitsPerKey)
	if !one.MayContain([]byte("solo")) {
		t.Error("single-key filter missed its key")
	}
}

func TestReservedProbeCount(t *testing.T) {
	f := Filter{0x00, 0x00, 31} // k=31 is reserved
	if !f.MayContain([]byte("k")) {
		t.Error("reserved encoding must match everything")
	}
}

func TestHashStability(t *testing.T) {
	// Regression anchors: the hash feeds on-disk filters, so it must
	// never change between versions.
	if Hash([]byte{}) != Hash([]byte{}) {
		t.Error("hash must be deterministic")
	}
	anchors := map[string]uint32{}
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "abcde"} {
		anchors[s] = Hash([]byte(s))
	}
	for s, h := range anchors {
		if Hash([]byte(s)) != h {
			t.Errorf("hash of %q unstable", s)
		}
	}
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Error("distinct keys should hash apart (sanity)")
	}
}

func TestPropertyMembership(t *testing.T) {
	f := func(keys [][]byte, bits uint8) bool {
		bpk := int(bits%20) + 1
		filt := Build(keys, bpk)
		for _, k := range keys {
			if !filt.MayContain(k) {
				return false
			}
		}
		// A probe by hash answers as the probe by key, absent keys included.
		for i := 0; i < 64; i++ {
			if k := key(i); filt.MayContainHash(Hash(k)) != filt.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild10k(b *testing.B) {
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%010d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(keys, DefaultBitsPerKey)
	}
}

func BenchmarkMayContain(b *testing.B) {
	keys := make([][]byte, 10000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%010d", i))
	}
	f := Build(keys, DefaultBitsPerKey)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(keys[i%len(keys)])
	}
}

// TestBuildFromHashesMatchesBuild: a filter is a function of its keys'
// hashes alone, so a writer may keep those instead of the keys.
func TestBuildFromHashesMatchesBuild(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100, 5000} {
		keys := make([][]byte, n)
		hashes := make([]uint32, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("user%08d", i*7919))
			hashes[i] = Hash(keys[i])
		}
		for _, bits := range []int{-1, 1, 10, DefaultBitsPerKey, 64} {
			if a, b := Build(keys, bits), BuildFromHashes(hashes, bits); string(a) != string(b) {
				t.Fatalf("n=%d bits=%d: Build and BuildFromHashes differ", n, bits)
			}
		}
	}
}
