package lsm

import (
	"iamdb/internal/engine"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/tableset"
)

// Flush implements engine.Engine: the immutable memtable becomes one
// new L0 file (ranges in L0 may overlap).
func (d *DB) Flush(it iterator.Iterator) error {
	d.Mu.Lock()
	defer d.Mu.Unlock()
	st := d.rep.Begin(engine.StepFlush, 0)
	defer st.End()
	filtered := engine.DropObsolete(it, d.Horizon(), false, d.cfg.OnDrop)
	filtered.First()
	files, bytes, err := d.BuildRuns(filtered, 1<<62, 0)
	if err != nil {
		return err
	}
	for _, f := range files {
		st.Out(f.ID())
	}
	st.Done(bytes, 0)
	return d.Apply(new(tableset.Change).Place(0, files...))
}

// overflowTolerance is the score at which the LevelDB profile finally
// compacts a size-triggered level.  Real LevelDB's single background
// thread falls behind sustained writes, letting level sizes overflow
// their thresholds (the paper measures 5.6x on L1, 3.0x on L2 after a
// 1 TB load, Sec. 6.2); this tolerance reproduces that behaviour
// structurally in the virtual-time harness.
const overflowTolerance = 2.0

// pickCompaction scores every level (L0 by file count, others by size
// over threshold) and returns the level to compact, or -1.  strict
// ignores the LevelDB profile's overflow tolerance (used to settle the
// tree — the "tuning phase").  Quarantined files neither score (see
// levelBytes/activeCount) nor block scheduling of other levels, but a
// level whose compaction would have to merge with a quarantined target
// file is skipped entirely: rewriting a fenced file would destroy the
// evidence, and attempting to read it would fail the merge forever.
func (d *DB) pickCompaction(strict bool) (int, float64) {
	trigger := 1.0
	if !strict && d.cfg.Profile == ProfileLevelDB {
		trigger = overflowTolerance
	}
	best, bestScore := -1, 0.0
	s0 := float64(d.ActiveCount(0)) / float64(d.cfg.L0CompactTrigger)
	if s0 >= 1 && s0 > bestScore && !d.compactionBlocked(0) {
		best, bestScore = 0, s0
	}
	for i := 1; i < d.NumLevels()-1; i++ {
		s := float64(d.levelBytes(i)) / float64(d.threshold(i))
		if s >= trigger && s > bestScore && !d.compactionBlocked(i) {
			best, bestScore = i, s
		}
	}
	return best, bestScore
}

// compactionBlocked reports whether compacting level i would need a
// quarantined file from level i+1 as merge input.
func (d *DB) compactionBlocked(i int) bool {
	inputs := d.compactionInputs(i)
	if len(inputs) == 0 {
		return true
	}
	var span kv.Range
	for _, f := range inputs {
		span = span.Union(f.Range())
	}
	for _, f := range d.Level(i + 1) {
		if f.Quarantined() && f.Range().Overlaps(span) {
			return true
		}
	}
	return false
}

// compactionInputs selects the level-i files the next compaction would
// consume: all eligible L0 files, or the round-robin pick for deeper
// levels.  Quarantined files are never selected.
func (d *DB) compactionInputs(i int) []*tableset.Table {
	var inputs []*tableset.Table
	if i == 0 {
		for _, f := range d.Level(0) {
			if !f.Quarantined() {
				inputs = append(inputs, f)
			}
		}
		return inputs
	}
	if f := d.pickFileRoundRobin(i); f != nil {
		inputs = append(inputs, f)
	}
	return inputs
}

// StallLevel implements engine.Engine.
func (d *DB) StallLevel() int {
	d.Mu.Lock()
	defer d.Mu.Unlock()
	return d.stallLocked()
}

func (d *DB) stallLocked() int {
	// Quarantined L0 files can never compact away; counting them would
	// stall writes permanently.
	n := d.ActiveCount(0)
	switch {
	case n >= 3*d.cfg.L0CompactTrigger:
		return 2
	case n >= 2*d.cfg.L0CompactTrigger:
		return 1
	}
	if d.cfg.Profile == ProfileRocksDB {
		// RocksDB also throttles on pending compaction debt.
		var debt int64
		for i := 1; i < d.NumLevels()-1; i++ {
			if over := d.levelBytes(i) - d.threshold(i); over > 0 {
				debt += over
			}
		}
		switch {
		case debt > 4*d.threshold(1):
			return 2
		case debt > 2*d.threshold(1):
			return 1
		}
	}
	return 0
}

// WorkStep implements engine.Engine: one compaction.
func (d *DB) WorkStep() (bool, error) {
	d.Mu.Lock()
	defer d.Mu.Unlock()
	lvl, _ := d.pickCompaction(false)
	if lvl < 0 {
		return false, nil
	}
	if err := d.compactLevel(lvl); err != nil {
		return false, err
	}
	return true, nil
}

// compactLevel merges level i inputs into level i+1.
func (d *DB) compactLevel(i int) error {
	inputs := d.compactionInputs(i)
	if len(inputs) == 0 {
		return nil // everything eligible is quarantined
	}
	var span kv.Range
	for _, f := range inputs {
		span = span.Union(f.Range())
	}
	var overlaps []*tableset.Table
	for _, f := range d.Level(i + 1) {
		if f.Range().Overlaps(span) {
			if f.Quarantined() {
				// Merging through a fenced file would either fail on its
				// corruption or rewrite away the evidence; leave this
				// level alone (pickCompaction avoids scheduling it).
				return nil
			}
			overlaps = append(overlaps, f)
		}
	}
	d.cursor[i] = append([]byte(nil), span.Hi...)

	// Trivial move: a single input with no overlaps drops down by a
	// metadata change only.
	if len(inputs) == 1 && len(overlaps) == 0 {
		f := inputs[0]
		mv := d.rep.Begin(engine.StepMove, i+1)
		defer mv.End()
		mv.In(f.ID())
		mv.Out(f.ID()) // the file survives the move, re-homed a level down
		return d.Apply(new(tableset.Change).Drop(i, f).Place(i+1, f))
	}

	// Merge: newest sources first so the merge iterator's tie order is
	// right (internal keys are unique, so this is belt-and-braces).
	var kids []iterator.Iterator
	if i == 0 {
		for j := len(inputs) - 1; j >= 0; j-- {
			kids = append(kids, inputs[j].NewIter())
		}
	} else {
		for _, f := range inputs {
			kids = append(kids, f.NewIter())
		}
	}
	for _, f := range overlaps {
		kids = append(kids, f.NewIter())
	}
	st := d.rep.Begin(engine.StepCompact, i+1)
	defer st.End()
	for _, f := range inputs {
		st.Read(i, f.DataSize())
		st.In(f.ID())
	}
	for _, f := range overlaps {
		st.Read(i+1, f.DataSize())
		st.In(f.ID())
	}
	merged := iterator.NewMerging(kv.CompareInternal, kids...)
	atBottom := d.isBottom(i + 1)
	filtered := engine.DropObsolete(merged, d.Horizon(), atBottom, d.cfg.OnDrop)
	defer filtered.Close()
	filtered.First()
	files, bytes, err := d.BuildRuns(filtered, d.cfg.FileSize, 0)
	if err != nil {
		return err
	}
	for _, f := range files {
		st.Out(f.ID())
	}
	st.Done(bytes, int64(len(files)))
	return d.Apply(new(tableset.Change).Drop(i, inputs...).Drop(i+1, overlaps...).Place(i+1, files...))
}

// isBottom reports whether no level deeper than dst holds data.
func (d *DB) isBottom(dst int) bool {
	for j := dst + 1; j < d.NumLevels(); j++ {
		if len(d.Level(j)) > 0 {
			return false
		}
	}
	return true
}

// pickFileRoundRobin picks the next non-quarantined file of level i
// after the level's compact pointer, wrapping (the LevelDB strategy).
// Returns nil when every file of the level is quarantined.
func (d *DB) pickFileRoundRobin(i int) *tableset.Table {
	lvl := d.Level(i)
	cur := d.cursor[i]
	for _, f := range lvl {
		if f.Quarantined() {
			continue
		}
		if cur == nil || kv.CompareUser(f.Range().Lo, cur) > 0 {
			return f
		}
	}
	for _, f := range lvl {
		if !f.Quarantined() {
			return f
		}
	}
	return nil
}

// Settle implements engine.Engine: it runs compactions until every level
// is within its strict threshold, ignoring the LevelDB profile's overflow
// tolerance.  This is the paper's "tuning phase": the work to move down
// all data overflows after a load (Sec. 6.2).
func (d *DB) Settle() error {
	for {
		d.Mu.Lock()
		lvl, _ := d.pickCompaction(true)
		if lvl < 0 {
			d.Mu.Unlock()
			return nil
		}
		err := d.compactLevel(lvl)
		d.Mu.Unlock()
		if err != nil {
			return err
		}
	}
}
