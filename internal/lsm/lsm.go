// Package lsm implements the leveled LSM-tree baselines the paper
// compares against (Sec. 2.1, Fig. 1): an overflow-tolerant,
// single-compaction LevelDB-style profile ("L") and a strict,
// stall-controlled RocksDB-style profile ("R").
//
// Structure: L0 holds whole flushed memtables whose key ranges overlap;
// L1..Ln hold disjoint sorted files.  When L0 reaches its file-count
// trigger, all L0 files merge with the overlapping L1 files; when Li
// exceeds its size threshold, one file (round-robin by key) merges with
// its overlapping Li+1 files.  Every on-disk file is a single-sequence
// MSTable (i.e. an SSTable).
//
// The two profiles model the tuning difference the paper leans on:
//   - ProfileLevelDB rate-limits background work (one compaction step
//     per memtable flush), so under write pressure levels overflow
//     their thresholds — which lowers effective write amplification but
//     lengthens the tuning phase and worsens tail latency (Sec. 6.2).
//   - ProfileRocksDB drains all pending compaction promptly and applies
//     slowdown/stop write stalls, so levels hold their thresholds — no
//     overflow, higher write amplification, controlled latency.
package lsm

import (
	"iamdb/internal/cache"
	"iamdb/internal/engine"
	"iamdb/internal/metrics"
	"iamdb/internal/tableset"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
)

// Profile selects the baseline tuning.
type Profile int

const (
	// ProfileLevelDB models the paper's tuned LevelDB ("L").
	ProfileLevelDB Profile = iota
	// ProfileRocksDB models the paper's tuned RocksDB ("R").
	ProfileRocksDB
)

func (p Profile) String() string {
	if p == ProfileLevelDB {
		return "LevelDB"
	}
	return "RocksDB"
}

// maxLevels bounds the level count: L0..L6.
const maxLevels = 7

// Config parameterizes the baseline engine.
type Config struct {
	FS    vfs.FS
	Dir   string
	Cache *cache.Cache

	// FileSize is the SSTable target size (paper: 64 MiB).
	FileSize int64
	// LevelSizeBase is L1's size threshold (paper: 640 MiB); each
	// deeper level multiplies by Fanout.
	LevelSizeBase int64
	// Fanout is the size ratio between adjacent levels (default 10).
	Fanout int
	// L0CompactTrigger is the L0 file count that starts a compaction
	// (default 4); slowdown at 2x, stop at 3x.
	L0CompactTrigger int
	// Profile picks LevelDB or RocksDB behaviour.
	Profile Profile
	// BitsPerKey sets Bloom density (default 14).
	BitsPerKey int
	// Compression enables flate compression of data blocks.
	Compression bool
	// OnDrop is notified of every record compactions discard (see
	// engine.DropObserver); the DB layer uses it to feed value-log
	// discard statistics.  Nil disables the callback.
	OnDrop engine.DropObserver
	// Events receives structural event notifications (flush, merge,
	// move, ...).  Nil means no-op listeners.
	Events *metrics.EventListener
	// Clock supplies monotonic time for event durations.  Nil means
	// the zero clock: events fire but durations read 0.
	Clock metrics.Clock
	// Trace records structural spans (flush, compaction jobs with file
	// lineage).  Nil disables tracing at zero cost.
	Trace *trace.Recorder
}

func (c *Config) fill() {
	if c.FileSize == 0 {
		c.FileSize = 64 << 20
	}
	if c.LevelSizeBase == 0 {
		c.LevelSizeBase = 640 << 20
	}
	if c.Fanout == 0 {
		c.Fanout = 10
	}
	if c.L0CompactTrigger == 0 {
		c.L0CompactTrigger = 4
	}
}

// DB is the baseline leveled LSM engine over a table set: a file is a
// tableset.Table whose range is its data bounds.  The embedded set
// supplies the levels (L0 overlapping and ordered by file number, L1..
// disjoint and sorted), the manifest, the structural mutex Mu and every
// read and reporting method; what is declared here is the policy,
// engine.Engine — size thresholds, the compact cursor, compaction picking,
// the stall level — and the merge that moves data down.
type DB struct {
	*tableset.Set
	cfg Config

	// cursor[i] remembers where round-robin compaction of level i
	// stopped (the LevelDB compact pointer).
	cursor map[int][]byte
	// rep takes every flush, move and compaction: its span, its counters
	// and its event.
	rep *engine.Reporter
}

var _ engine.Engine = (*DB)(nil)

// Open creates or reopens a baseline LSM in cfg.Dir.  A directory whose
// manifest holds tables at level maxLevels or deeper (written by a
// tree that grew further) is refused with tableset.ErrLayout.
func Open(cfg Config) (*DB, error) {
	cfg.fill()
	set, err := tableset.Open(tableset.Config{
		FS: cfg.FS, Dir: cfg.Dir, Cache: cfg.Cache,
		BitsPerKey: cfg.BitsPerKey, Compression: cfg.Compression,
		Events: cfg.Events, MaxLevels: maxLevels,
	})
	if err != nil {
		return nil, err
	}
	return &DB{
		Set: set, cfg: cfg, cursor: make(map[int][]byte),
		rep: engine.NewReporter("lsm", cfg.Events, cfg.Clock, cfg.Trace),
	}, nil
}

// threshold returns level i's size threshold in bytes.
func (d *DB) threshold(i int) int64 {
	th := d.cfg.LevelSizeBase
	for j := 1; j < i; j++ {
		th *= int64(d.cfg.Fanout)
	}
	return th
}

// levelBytes sums the compactable data bytes of level i.  Quarantined
// files are excluded: they can never be compaction inputs, so counting
// them would leave the scheduler permanently over threshold.
func (d *DB) levelBytes(i int) int64 {
	var n int64
	for _, f := range d.Level(i) {
		if !f.Quarantined() {
			n += f.DataSize()
		}
	}
	return n
}

// Stats implements engine.Engine.
func (d *DB) Stats() engine.StatsSnapshot { return d.rep.Snapshot() }

// CheckInvariants implements engine.Engine.  The set's structure is all a
// baseline promises: its size thresholds are triggers, and the LevelDB
// profile overflows them by design.
func (d *DB) CheckInvariants() error {
	d.Mu.Lock()
	defer d.Mu.Unlock()
	return d.CheckStructure()
}
