package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func buildBlock(pairs [][2]string) []byte {
	b := NewBuilder()
	for _, p := range pairs {
		b.Add([]byte(p[0]), []byte(p[1]))
	}
	return b.Finish()
}

func TestBuildIterate(t *testing.T) {
	pairs := [][2]string{}
	for i := 0; i < 100; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("key%04d", i), fmt.Sprintf("val%d", i)})
	}
	r, err := NewReader(buildBlock(pairs), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Key()) != pairs[i][0] || string(it.Value()) != pairs[i][1] {
			t.Fatalf("entry %d: %q=%q", i, it.Key(), it.Value())
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != len(pairs) {
		t.Fatalf("iterated %d entries want %d", i, len(pairs))
	}
}

func TestSeek(t *testing.T) {
	var pairs [][2]string
	for i := 0; i < 200; i += 2 { // even keys only
		pairs = append(pairs, [2]string{fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i)})
	}
	r, err := NewReader(buildBlock(pairs), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()

	// Exact hit.
	it.Seek([]byte("k0100"))
	if !it.Valid() || string(it.Key()) != "k0100" {
		t.Fatalf("seek exact: %q valid=%v", it.Key(), it.Valid())
	}
	// Between keys: lands on next even.
	it.Seek([]byte("k0101"))
	if !it.Valid() || string(it.Key()) != "k0102" {
		t.Fatalf("seek between: %q", it.Key())
	}
	// Before all.
	it.Seek([]byte("a"))
	if !it.Valid() || string(it.Key()) != "k0000" {
		t.Fatalf("seek before-all: %q", it.Key())
	}
	// After all.
	it.Seek([]byte("z"))
	if it.Valid() {
		t.Fatalf("seek past-end should invalidate, got %q", it.Key())
	}
	// Iterate after a seek.
	it.Seek([]byte("k0196"))
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 2 || got[0] != "k0196" || got[1] != "k0198" {
		t.Fatalf("tail after seek: %v", got)
	}
}

func TestSeekEveryKey(t *testing.T) {
	var pairs [][2]string
	for i := 0; i < 500; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("key%06d", i*3), "v"})
	}
	r, _ := NewReader(buildBlock(pairs), bytes.Compare)
	it := r.Iter()
	for i := 0; i < 500; i++ {
		want := fmt.Sprintf("key%06d", i*3)
		it.Seek([]byte(want))
		if !it.Valid() || string(it.Key()) != want {
			t.Fatalf("seek %s landed on %q", want, it.Key())
		}
	}
}

func TestPrefixCompressionShrinks(t *testing.T) {
	long := bytes.Repeat([]byte("prefix-"), 10)
	b := NewBuilder()
	raw := 0
	for i := 0; i < 64; i++ {
		k := append(append([]byte(nil), long...), []byte(fmt.Sprintf("%06d", i))...)
		b.Add(k, []byte("v"))
		raw += len(k) + 1
	}
	enc := b.Finish()
	if len(enc) >= raw {
		t.Errorf("no compression: %d >= %d", len(enc), raw)
	}
}

func TestBuilderReuseAfterFinish(t *testing.T) {
	b := NewBuilder()
	b.Add([]byte("a"), []byte("1"))
	first := b.Finish()
	if b.Count() != 0 || !b.Empty() {
		t.Fatal("builder not reset")
	}
	b.Add([]byte("b"), []byte("2"))
	second := b.Finish()
	r1, _ := NewReader(first, bytes.Compare)
	r2, _ := NewReader(second, bytes.Compare)
	it1, it2 := r1.Iter(), r2.Iter()
	it1.First()
	it2.First()
	if string(it1.Key()) != "a" || string(it2.Key()) != "b" {
		t.Fatalf("reuse bleed: %q %q", it1.Key(), it2.Key())
	}
}

func TestEmptyValuesAndBinaryKeys(t *testing.T) {
	b := NewBuilder()
	keys := [][]byte{{0}, {0, 0}, {0, 1}, {1}, {0xff, 0xfe}, {0xff, 0xff}}
	for _, k := range keys {
		b.Add(k, nil)
	}
	r, err := NewReader(b.Finish(), bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), keys[i]) {
			t.Fatalf("key %d: %v != %v", i, it.Key(), keys[i])
		}
		if len(it.Value()) != 0 {
			t.Fatalf("value %d not empty", i)
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("got %d keys", i)
	}
}

func TestCorruptBlocksRejected(t *testing.T) {
	if _, err := NewReader(nil, bytes.Compare); err == nil {
		t.Error("nil block accepted")
	}
	if _, err := NewReader([]byte{1, 2, 3}, bytes.Compare); err == nil {
		t.Error("short block accepted")
	}
	// restart count pointing past the block
	bad := make([]byte, 8)
	bad[4] = 0xff
	bad[5] = 0xff
	if _, err := NewReader(bad, bytes.Compare); err == nil {
		t.Error("bogus restart count accepted")
	}
	// Zero restart count.
	zero := make([]byte, 4)
	if _, err := NewReader(zero, bytes.Compare); err == nil {
		t.Error("zero restarts accepted")
	}
}

func TestTruncatedEntryDetected(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 50; i++ {
		b.Add([]byte(fmt.Sprintf("key%03d", i)), bytes.Repeat([]byte("v"), 40))
	}
	enc := b.Finish()
	// Corrupt an entry length deep inside: set a huge varint vlen.
	enc[40] = 0xff
	enc[41] = 0xff
	enc[42] = 0xff
	r, err := NewReader(enc, bytes.Compare)
	if err != nil {
		return // rejected at parse time: fine
	}
	it := r.Iter()
	for it.First(); it.Valid(); it.Next() {
	}
	// Either clean stop with error, or survived because corruption hit
	// a value byte; both are safe.  What must not happen is a panic.
}

func TestFullAndSizeEstimate(t *testing.T) {
	b := NewBuilder()
	if b.Full() {
		t.Fatal("empty builder full")
	}
	i := 0
	for !b.Full() {
		b.Add([]byte(fmt.Sprintf("key%08d", i)), bytes.Repeat([]byte("x"), 100))
		i++
	}
	enc := b.Finish()
	if len(enc) < TargetSize || len(enc) > TargetSize+256 {
		t.Errorf("block size %d not near target %d", len(enc), TargetSize)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(raw map[string]string) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b := NewBuilder()
		for _, k := range keys {
			b.Add([]byte(k), []byte(raw[k]))
		}
		r, err := NewReader(b.Finish(), bytes.Compare)
		if err != nil {
			return false
		}
		it := r.Iter()
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if string(it.Key()) != keys[i] || string(it.Value()) != raw[keys[i]] {
				return false
			}
			i++
		}
		if i != len(keys) || it.Err() != nil {
			return false
		}
		// Seek to a random present key.
		probe := keys[len(keys)/2]
		it.Seek([]byte(probe))
		return it.Valid() && string(it.Key()) == probe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBlockBuild(b *testing.B) {
	keys := make([][]byte, 128)
	val := bytes.Repeat([]byte("v"), 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder()
		for _, k := range keys {
			bl.Add(k, val)
		}
		bl.Finish()
	}
}

func BenchmarkBlockSeek(b *testing.B) {
	bl := NewBuilder()
	var keys [][]byte
	for i := 0; i < 128; i++ {
		k := []byte(fmt.Sprintf("user%012d", i))
		keys = append(keys, k)
		bl.Add(k, bytes.Repeat([]byte("v"), 100))
	}
	r, _ := NewReader(bl.Finish(), bytes.Compare)
	it := r.Iter()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Seek(keys[rng.Intn(len(keys))])
	}
}

func TestLastAndPrev(t *testing.T) {
	var pairs [][2]string
	for i := 0; i < 100; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("key%03d", i), fmt.Sprintf("v%d", i)})
	}
	r, _ := NewReader(buildBlock(pairs), bytes.Compare)
	it := r.Iter()

	it.Last()
	if !it.Valid() || string(it.Key()) != "key099" {
		t.Fatalf("last: %q valid=%v", it.Key(), it.Valid())
	}
	// Walk the whole block backward.
	for i := 98; i >= 0; i-- {
		it.Prev()
		if !it.Valid() {
			t.Fatalf("prev died at %d", i)
		}
		want := fmt.Sprintf("key%03d", i)
		if string(it.Key()) != want {
			t.Fatalf("prev at %d: %q want %q", i, it.Key(), want)
		}
		if string(it.Value()) != fmt.Sprintf("v%d", i) {
			t.Fatalf("prev value at %d: %q", i, it.Value())
		}
	}
	it.Prev()
	if it.Valid() {
		t.Fatal("prev before first should invalidate")
	}
}

func TestPrevAfterSeek(t *testing.T) {
	var pairs [][2]string
	for i := 0; i < 50; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("k%03d", i*2), "v"})
	}
	r, _ := NewReader(buildBlock(pairs), bytes.Compare)
	it := r.Iter()
	it.Seek([]byte("k050"))
	if string(it.Key()) != "k050" {
		t.Fatalf("seek: %q", it.Key())
	}
	it.Prev()
	if string(it.Key()) != "k048" {
		t.Fatalf("prev: %q", it.Key())
	}
	// Forward again after Prev.
	it.Next()
	if string(it.Key()) != "k050" {
		t.Fatalf("next after prev: %q", it.Key())
	}
}

func TestSeekForPrev(t *testing.T) {
	var pairs [][2]string
	for i := 0; i < 50; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("k%03d", i*2), "v"})
	}
	r, _ := NewReader(buildBlock(pairs), bytes.Compare)
	it := r.Iter()
	// Exact hit.
	it.SeekForPrev([]byte("k048"))
	if string(it.Key()) != "k048" {
		t.Fatalf("exact: %q", it.Key())
	}
	// Between entries: previous one.
	it.SeekForPrev([]byte("k049"))
	if string(it.Key()) != "k048" {
		t.Fatalf("between: %q", it.Key())
	}
	// Before all: invalid.
	it.SeekForPrev([]byte("a"))
	if it.Valid() {
		t.Fatal("before-all should invalidate")
	}
	// After all: last.
	it.SeekForPrev([]byte("zzz"))
	if string(it.Key()) != "k098" {
		t.Fatalf("after-all: %q", it.Key())
	}
}

func TestPrevSingleEntry(t *testing.T) {
	r, _ := NewReader(buildBlock([][2]string{{"only", "v"}}), bytes.Compare)
	it := r.Iter()
	it.Last()
	if !it.Valid() || string(it.Key()) != "only" {
		t.Fatal("last on singleton")
	}
	it.Prev()
	if it.Valid() {
		t.Fatal("prev on singleton")
	}
}

// TestBuilderReuseOfFinishedStorage: a finished block is the caller's
// until handed back; a builder given the storage back builds the same
// bytes in it that a fresh builder would, over and over.
func TestBuilderReuseOfFinishedStorage(t *testing.T) {
	fill := func(b *Builder, round int) {
		for i := 0; i < 40; i++ { // past two restart points
			b.Add([]byte(fmt.Sprintf("key-%02d-%04d", round, i)), bytes.Repeat([]byte{byte(round)}, 50))
		}
	}
	reused := NewBuilder()
	fill(reused, 0)
	kept := reused.Finish()
	keptCopy := append([]byte(nil), kept...)
	var prev []byte
	for round := 1; round < 6; round++ {
		fresh := NewBuilder()
		fill(fresh, round)
		fill(reused, round)
		got, want := reused.Finish(), fresh.Finish()
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: a builder on reused storage encodes a different block", round)
		}
		if round > 2 && &got[0] != &prev[0] {
			t.Fatalf("round %d: the builder left the storage it was handed for a new one", round)
		}
		if !bytes.Equal(kept, keptCopy) {
			t.Fatalf("round %d: a block never handed back was overwritten", round)
		}
		prev = got
		reused.Reuse(got)
	}
}
