package iamdb_test

import (
	"os"
	"testing"

	"iamdb"
	"iamdb/internal/harness"
	"iamdb/internal/vfs"
)

// corruptionMatrices states the three corruption matrices, the latent-fault
// siblings of the crash matrices: each row builds a deterministic store per
// engine, then — per sampled (file × offset) point — damages exactly one
// byte of the synced image (bit-flip and zeroing variants), reopens, and
// checks the rot verdict: open succeeds or fails with a typed corruption
// error naming the file; no read ever returns bytes that were never
// acknowledged; an acknowledged key goes missing only when the store
// flagged the corruption; provably harmless damage changes nothing.
//
// The bounded default samples cap points per mode so `go test -run
// Corruption` stays in seconds; for the rows marked full, IAMDB_ROT_FULL=1
// sweeps every point of every file in both damage modes.
var corruptionMatrices = map[string]struct {
	w       harness.Workload
	engines []iamdb.EngineKind
	full    bool
	cap     int
}{
	"TestCorruptionMatrix": {
		engines: []iamdb.EngineKind{iamdb.IAM, iamdb.LSA, iamdb.LevelDB, iamdb.RocksDB}, full: true, cap: 52,
	},
	// A KV-separated store (threshold 8 separates every scripted value,
	// ~18 bytes): the point enumeration walks value-log segments alongside
	// tables, WALs and the manifest, so single-byte damage lands on record
	// CRCs, segment magic and live value payloads — every read of a damaged
	// value must fail typed or be flagged, never return rotted bytes.
	"TestCorruptionMatrixKVSep": {
		w:       harness.Workload{ValueThreshold: 8},
		engines: []iamdb.EngineKind{iamdb.IAM, iamdb.LSA}, full: true, cap: 40,
	},
	// A 4-shard store: the matrix spans four independent file sets plus the
	// SHARDS routing marker, and the verdict holds per shard (damage in one
	// shard never costs another shard's acknowledged keys silently).
	"TestCorruptionMatrixSharded": {
		w:       harness.Workload{Shards: 4},
		engines: []iamdb.EngineKind{iamdb.IAM, iamdb.LevelDB}, cap: 32,
	},
}

func TestCorruptionMatrix(t *testing.T)        { runCorruptionMatrix(t) }
func TestCorruptionMatrixKVSep(t *testing.T)   { runCorruptionMatrix(t) }
func TestCorruptionMatrixSharded(t *testing.T) { runCorruptionMatrix(t) }

// runCorruptionMatrix runs the row named after the calling test.
func runCorruptionMatrix(t *testing.T) {
	m := corruptionMatrices[t.Name()]
	full := m.full && os.Getenv("IAMDB_ROT_FULL") != ""
	for _, eng := range m.engines {
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			w := m.w
			w.Engine = eng
			n, err := w.RotPoints()
			if err != nil {
				t.Fatalf("calibrate: %v", err)
			}
			if n < 100 {
				t.Fatalf("store exposes only %d corruption points; want >= 100", n)
			}
			for _, md := range []struct {
				name string
				mode vfs.RotMode
			}{{"Flip", vfs.RotFlip}, {"Zero", vfs.RotZero}} {
				t.Run(md.name, func(t *testing.T) {
					t.Parallel()
					for _, s := range pickSlots(n, m.cap, full) {
						if err := w.RotTrial(md.mode, s); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// pickSlots returns every point index when full, else an evenly-strided
// sample of cap points that always includes the first and last.
func pickSlots(n, cap int, full bool) []int {
	if full || n <= cap {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, cap)
	for i := 0; i < cap; i++ {
		out = append(out, i*(n-1)/(cap-1))
	}
	return out
}
