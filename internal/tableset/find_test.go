package tableset

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"iamdb/internal/kv"
)

// The fence search answers as a linear scan of the ranges does, on seeded
// levels whose keys are built to defeat an 8-byte prefix: half share one
// (ties the full comparison must break), some are shorter than 8 bytes
// (zero padding), and the alphabet holds 0x00, so a key and the same key
// with a trailing 0x00 have one fence.
func TestFenceSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0xff}
	randKey := func() []byte {
		var k []byte
		if rng.Intn(2) == 0 {
			k = append(k, "sharedpf"...)
		}
		for n := rng.Intn(11); n > 0; n-- {
			k = append(k, alphabet[rng.Intn(len(alphabet))])
		}
		return k
	}
	for round := 0; round < 200; round++ {
		var keys [][]byte
		for n := 2 + rng.Intn(60); n > 0; n-- {
			keys = append(keys, randKey())
		}
		slices.SortFunc(keys, bytes.Compare)
		keys = slices.CompactFunc(keys, bytes.Equal)
		// Disjoint sorted ranges over the keys: some one key wide, some
		// wider, with gaps between them.
		var lvl []*Table
		for i := 0; i < len(keys); i++ {
			if rng.Intn(4) == 0 {
				continue
			}
			j := min(i+rng.Intn(3), len(keys)-1)
			lvl = append(lvl, newPlacement(nil, kv.Range{Lo: keys[i], Hi: keys[j]}, 0))
			i = j
		}
		probes := append([][]byte{nil, {}}, keys...)
		for _, k := range keys {
			probes = append(probes, append(slices.Clip(k), 0x00), append(slices.Clip(k), 0xff), k[:len(k)/2])
		}
		for n := 0; n < 50; n++ {
			probes = append(probes, randKey())
		}
		for _, k := range probes {
			var want *Table
			for _, tb := range lvl {
				if tb.rng.Contains(k) {
					want = tb
				}
			}
			if got := find(lvl, k); got != want {
				t.Fatalf("round %d: find(%q) = %v, a linear scan finds %v", round, k, rangeOf(got), rangeOf(want))
			}
		}
	}
}

func rangeOf(tb *Table) string {
	if tb == nil {
		return "none"
	}
	return tb.rng.String()
}
