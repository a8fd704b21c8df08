package iamdb_test

import (
	"os"
	"sort"
	"testing"

	"iamdb"
	"iamdb/internal/harness"
	"iamdb/internal/vfs"
)

// crashMatrices states the four crash matrices.  Each row calibrates the
// scripted workload's filesystem-operation landscape per engine, then
// crashes at every sync boundary (downsampled to a budget) plus
// evenly-strided write indices, recovering and checking the verdict each
// time; torn- and bit-flip-tail variants run on a subset of the same
// points.  A row's two numbers are pickPoints' sync cap and stride count.
//
// The bounded default keeps `go test -run Crash` in seconds; for the rows
// marked full, IAMDB_CRASH_FULL=1 is the exhaustive sweep (every operation
// index, all four engines, every crash mode on every point).
var crashMatrices = map[string]struct {
	w          harness.Workload
	engines    []iamdb.EngineKind
	full       bool
	points     [2]int
	floor      int // fewest distinct crash points the main sweep may have
	modes      []vfs.CrashMode
	modePoints [2]int
}{
	"TestCrashMatrix": {
		engines: []iamdb.EngineKind{iamdb.IAM, iamdb.LSA}, full: true, points: [2]int{80, 48}, floor: 100,
		modes: []vfs.CrashMode{vfs.CrashTorn, vfs.CrashFlip}, modePoints: [2]int{14, 8},
	},
	// Key-value separation on (threshold 8 separates every scripted value,
	// ~18 bytes): values live in the value log, so crashes land between log
	// appends, log syncs and WAL pointer commits, and recovery must honor
	// value-durable-before-pointer — a surviving pointer whose value is gone
	// would surface as a corruption read, which the verdict rejects for
	// acknowledged keys.
	"TestCrashMatrixKVSep": {
		w:       harness.Workload{ValueThreshold: 8},
		engines: []iamdb.EngineKind{iamdb.IAM, iamdb.LSA}, full: true, points: [2]int{50, 30},
		modes: []vfs.CrashMode{vfs.CrashTorn, vfs.CrashFlip}, modePoints: [2]int{10, 6},
	},
	// A 4-shard front-end: each shard has its own WAL and recovery path,
	// and the crash may land in any of them (or in the SHARDS marker write).
	"TestCrashMatrixSharded": {
		w:       harness.Workload{Shards: 4},
		engines: []iamdb.EngineKind{iamdb.IAM, iamdb.LSA}, points: [2]int{40, 24},
		modes: []vfs.CrashMode{vfs.CrashTorn}, modePoints: [2]int{10, 6},
	},
	// Both fronts: a 4-shard store with one value log per shard.
	"TestCrashMatrixShardedKVSep": {
		w:       harness.Workload{Shards: 4, ValueThreshold: 8},
		engines: []iamdb.EngineKind{iamdb.IAM}, points: [2]int{24, 16},
	},
}

func TestCrashMatrix(t *testing.T)             { runCrashMatrix(t) }
func TestCrashMatrixKVSep(t *testing.T)        { runCrashMatrix(t) }
func TestCrashMatrixSharded(t *testing.T)      { runCrashMatrix(t) }
func TestCrashMatrixShardedKVSep(t *testing.T) { runCrashMatrix(t) }

// runCrashMatrix runs the row named after the calling test.
func runCrashMatrix(t *testing.T) {
	m := crashMatrices[t.Name()]
	full := m.full && os.Getenv("IAMDB_CRASH_FULL") != ""
	if full {
		m.engines = append(m.engines, iamdb.LevelDB, iamdb.RocksDB)
	}
	modeNames := map[vfs.CrashMode]string{vfs.CrashTorn: "Torn", vfs.CrashFlip: "Flip"}
	for _, eng := range m.engines {
		t.Run(eng.String(), func(t *testing.T) {
			w := m.w
			w.Engine = eng
			cal, err := w.CalibrateCrash()
			if err != nil {
				t.Fatalf("calibrate: %v", err)
			}
			if cal.OpCount < 200 || len(cal.SyncPoints) < 50 {
				t.Fatalf("workload too small to explore: %d ops, %d sync points",
					cal.OpCount, len(cal.SyncPoints))
			}
			points := pickPoints(cal, m.points[0], m.points[1])
			if full {
				points = points[:0]
				for i := int64(0); i <= cal.OpCount; i++ {
					points = append(points, i)
				}
			}
			if len(points) < m.floor {
				t.Fatalf("only %d distinct crash points; want >= %d", len(points), m.floor)
			}
			for _, p := range points {
				if err := w.CrashTrial(vfs.CrashDrop, p); err != nil {
					t.Fatal(err)
				}
			}
			for _, mode := range m.modes {
				t.Run(modeNames[mode], func(t *testing.T) {
					sub := points
					if !full {
						sub = pickPoints(cal, m.modePoints[0], m.modePoints[1])
					}
					for _, p := range sub {
						if err := w.CrashTrial(mode, p); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// pickPoints selects crash points from a calibration: the sync
// boundaries downsampled to at most syncCap, plus strided mutating-op
// indices so crashes also land mid-write, between durability points.
func pickPoints(cal harness.CrashCalibration, syncCap, strided int) []int64 {
	set := make(map[int64]bool)
	sp := cal.SyncPoints
	step := 1
	if syncCap > 0 && len(sp) > syncCap {
		step = len(sp) / syncCap
	}
	for i := 0; i < len(sp); i += step {
		set[sp[i]] = true
	}
	if strided > 0 {
		st := cal.OpCount / int64(strided)
		if st == 0 {
			st = 1
		}
		for i := int64(1); i < cal.OpCount; i += st {
			set[i] = true
		}
	}
	out := make([]int64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
