package ycsb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestKeyNameHashScatters(t *testing.T) {
	// Hash-load keys must be unordered: consecutive record numbers
	// should not produce sorted keys.
	sortedRuns := 0
	for i := uint64(0); i < 999; i++ {
		if bytes.Compare(KeyName(i), KeyName(i+1)) < 0 {
			sortedRuns++
		}
	}
	if sortedRuns > 700 || sortedRuns < 300 {
		t.Errorf("hash keys look ordered: %d/999 ascending pairs", sortedRuns)
	}
	// Ordered keys are ordered.
	for i := uint64(0); i < 999; i++ {
		if bytes.Compare(OrderedKeyName(i), OrderedKeyName(i+1)) >= 0 {
			t.Fatal("ordered keys out of order")
		}
	}
}

func TestKeyNameNoCollisionsSmall(t *testing.T) {
	seen := make(map[string]bool, 100000)
	for i := uint64(0); i < 100000; i++ {
		k := string(KeyName(i))
		if seen[k] {
			t.Fatalf("collision at %d", i)
		}
		seen[k] = true
	}
}

func TestZipfianSkew(t *testing.T) {
	z := newZipfian(1000)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		r := z.next(rng)
		if r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 should be far hotter than rank 500.
	if counts[0] < 20*counts[500] && counts[500] > 0 {
		t.Errorf("not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
	// Hottest ~10 ranks should dominate.
	sum10 := 0
	for i := 0; i < 10; i++ {
		sum10 += counts[i]
	}
	if float64(sum10)/draws < 0.15 {
		t.Errorf("top-10 mass %.3f too small for zipf 0.99", float64(sum10)/draws)
	}
}

func TestZipfianGrow(t *testing.T) {
	z := newZipfian(100)
	z.grow(200)
	if z.items != 200 {
		t.Fatalf("items %d", z.items)
	}
	want := zetaStatic(200, zipfTheta)
	if diff := z.zetan - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("incremental zeta %f want %f", z.zetan, want)
	}
	// Shrinking is a no-op.
	z.grow(50)
	if z.items != 200 {
		t.Fatal("shrank")
	}
}

func TestWorkloadMixes(t *testing.T) {
	cases := []struct {
		w      Workload
		counts map[OpType]float64 // expected proportion
	}{
		{WorkloadA, map[OpType]float64{OpRead: 0.5, OpUpdate: 0.5}},
		{WorkloadB, map[OpType]float64{OpRead: 0.95, OpUpdate: 0.05}},
		{WorkloadC, map[OpType]float64{OpRead: 1.0}},
		{WorkloadD, map[OpType]float64{OpRead: 0.95, OpInsert: 0.05}},
		{WorkloadE, map[OpType]float64{OpScan: 0.95, OpInsert: 0.05}},
		{WorkloadF, map[OpType]float64{OpRead: 0.5, OpRMW: 0.5}},
		{WorkloadG, map[OpType]float64{OpScan: 0.95, OpInsert: 0.05}},
	}
	const draws = 50000
	for _, c := range cases {
		t.Run(c.w.Name, func(t *testing.T) {
			r := NewRunner(c.w, 10000, 7)
			got := map[OpType]int{}
			for i := 0; i < draws; i++ {
				op := r.Next()
				got[op.Type]++
				if op.Type == OpScan {
					if op.ScanLen < 1 || op.ScanLen > c.w.MaxScanLen {
						t.Fatalf("scan len %d", op.ScanLen)
					}
				}
				if len(op.Key) == 0 {
					t.Fatal("empty key")
				}
			}
			for typ, want := range c.counts {
				frac := float64(got[typ]) / draws
				if frac < want-0.02 || frac > want+0.02 {
					t.Errorf("%v: %.3f want %.2f", typ, frac, want)
				}
			}
		})
	}
}

func TestWorkloadDPrefersLatest(t *testing.T) {
	r := NewRunner(WorkloadD, 10000, 3)
	// Run inserts to move the frontier, then check reads cluster near
	// the newest records.
	recent, older := 0, 0
	for i := 0; i < 30000; i++ {
		op := r.Next()
		if op.Type != OpRead {
			continue
		}
		// Reverse-map: find rank by scanning is too slow; instead use
		// the fact that latest reads should mostly hit keys from the
		// most recent 10% of the insert space.
		for idx := r.insertSeq - 1; ; idx-- {
			if bytes.Equal(op.Key, KeyName(idx)) {
				if r.insertSeq-idx <= r.insertSeq/10 {
					recent++
				} else {
					older++
				}
				break
			}
			if idx == 0 || r.insertSeq-idx > 100 {
				older++ // deep key: count as older without full scan
				break
			}
		}
	}
	if recent < older {
		t.Errorf("latest distribution not recent-biased: %d recent vs %d older", recent, older)
	}
}

func TestScrambledZipfianCoversKeyspace(t *testing.T) {
	r := NewRunner(WorkloadC, 1000, 9)
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		seen[string(r.Next().Key)] = true
	}
	if len(seen) < 300 {
		t.Errorf("only %d distinct keys touched", len(seen))
	}
	// All keys must be valid existing records.
	valid := map[string]bool{}
	for i := uint64(0); i < 1000; i++ {
		valid[string(KeyName(i))] = true
	}
	for k := range seen {
		if !valid[k] {
			t.Fatalf("generated non-existent key %s", k)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		if w, ok := ByName(n); !ok || w.Name != n {
			t.Fatalf("ByName(%s) failed", n)
		}
	}
	if _, ok := ByName("Z"); ok {
		t.Fatal("ByName(Z) should fail")
	}
}

func TestValueDeterministic(t *testing.T) {
	a := Value(rand.New(rand.NewSource(1)), 1024)
	b := Value(rand.New(rand.NewSource(1)), 1024)
	if !bytes.Equal(a, b) {
		t.Fatal("value not deterministic for fixed seed")
	}
	if len(a) != 1024 {
		t.Fatal("size")
	}
}

func TestRunnerDeterminism(t *testing.T) {
	r1 := NewRunner(WorkloadA, 5000, 42)
	r2 := NewRunner(WorkloadA, 5000, 42)
	for i := 0; i < 1000; i++ {
		a, b := r1.Next(), r2.Next()
		if a.Type != b.Type || !bytes.Equal(a.Key, b.Key) || a.ScanLen != b.ScanLen {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestInsertsExtendKeyspace(t *testing.T) {
	r := NewRunner(WorkloadD, 100, 5)
	keys := map[string]bool{}
	inserts := 0
	for i := 0; i < 5000 && inserts < 50; i++ {
		op := r.Next()
		if op.Type == OpInsert {
			if keys[string(op.Key)] {
				t.Fatal("duplicate insert key")
			}
			keys[string(op.Key)] = true
			inserts++
		}
	}
	if inserts < 50 {
		t.Fatalf("only %d inserts", inserts)
	}
	// Keys must be brand-new (beyond the initial 100 records).
	var initial []string
	for i := uint64(0); i < 100; i++ {
		initial = append(initial, string(KeyName(i)))
	}
	sort.Strings(initial)
	for k := range keys {
		if idx := sort.SearchStrings(initial, k); idx < len(initial) && initial[idx] == k {
			t.Fatalf("insert reused existing key %s", k)
		}
	}
}

// TestOpStreamsPinned pins the first 200 000 operations of every
// workload: a SHA-256 over each op's type, key and scan length, recorded
// when keys were still formatted with fmt.  A change to the key format,
// the zipfian draw or the op mix moves a hash.
func TestOpStreamsPinned(t *testing.T) {
	const (
		ops     = 200000
		records = 100000
		seed    = 1
	)
	want := map[string]string{
		"A": "b74425e586eb76b0ef4fd7a2e63e2b4e91cd851398dbb3ee8a84c7443131e9d4",
		"B": "891d25d546bf67710e69c4e1bd45a6af8d11d27cf124e12a280f46fc5be0685e",
		"C": "8f32ca92bcbf7aeeb1bcf7e94a40c06a09b43df41d67fb97d6fd84fd15c35d9d",
		"D": "8358ba5fb9ab141753ddfa871cf6a6ee919b2ffb0efe65ea2922f9da535ee79d",
		"E": "f4633ca37c7ac663bd48438d1ed57a5582cb0116895f6b86f8a15d668b376cc0",
		"F": "3977e86c65d3c1579913bb386d9674e8382fe03a21a916b7ba2330aec62895bb",
		"G": "5b7be0e232698352bbbe24a4045c9373be8964c855dbf91886a550acc6ae0b34",
	}
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		w, _ := ByName(name)
		r := NewRunner(w, records, seed)
		h := sha256.New()
		var b [16]byte
		for i := 0; i < ops; i++ {
			op := r.Next()
			binary.LittleEndian.PutUint64(b[:8], uint64(op.Type))
			binary.LittleEndian.PutUint64(b[8:], uint64(op.ScanLen))
			h.Write(b[:])
			h.Write(op.Key)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("workload %s: op stream hash %s, want %s", name, got, want[name])
		}
	}
}

// TestKeyNameMatchesPrintf checks the strconv key format against the
// printf one it replaced, at every width boundary of a uint64.
func TestKeyNameMatchesPrintf(t *testing.T) {
	for _, i := range []uint64{0, 9, 10, 1e18 - 1, 1e18, 1e19 - 1, 1e19, math.MaxUint64} {
		if got, want := string(OrderedKeyName(i)), fmt.Sprintf("user%019d", i); got != want {
			t.Errorf("OrderedKeyName(%d) = %q, want %q", i, got, want)
		}
		if got, want := string(KeyName(i)), fmt.Sprintf("user%019d", fnv64(i)); got != want {
			t.Errorf("KeyName(%d) = %q, want %q", i, got, want)
		}
	}
}
