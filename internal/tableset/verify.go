package tableset

import (
	"fmt"

	"iamdb/internal/kv"
	"iamdb/internal/table"
)

// CheckStructure is what every engine's CheckInvariants starts from (the
// trees add their level thresholds): every table's file exists and its
// data lies inside its assigned range, level 0 is ordered by file number,
// deeper levels are sorted and disjoint.  Caller holds Mu.
func (s *Set) CheckStructure() error {
	for i, lvl := range s.cur.Load().levels {
		for j, tb := range lvl {
			if kv.CompareUser(tb.rng.Lo, tb.rng.Hi) > 0 {
				return fmt.Errorf("L%d table %d has inverted range %v", i, tb.ID(), tb.rng)
			}
			if !s.cfg.FS.Exists(s.path(tb.ID())) {
				return fmt.Errorf("L%d table %d missing on disk", i, tb.ID())
			}
			if tb.Entries() > 0 {
				dr := tb.UserRange()
				if !tb.rng.Contains(dr.Lo) || !tb.rng.Contains(dr.Hi) {
					return fmt.Errorf("L%d table %d: data %v outside range %v", i, tb.ID(), dr, tb.rng)
				}
			}
			if j == 0 {
				continue
			}
			prev := lvl[j-1]
			if i == 0 && prev.ID() >= tb.ID() {
				return fmt.Errorf("L0: tables %d and %d out of file order", prev.ID(), tb.ID())
			}
			if i > 0 && !prev.rng.Before(tb.rng) {
				return fmt.Errorf("L%d: ranges %v and %v not disjoint/sorted", i, prev.rng, tb.rng)
			}
		}
	}
	return nil
}

// DeepVerify is the offline check of the tools and the tests:
// CheckStructure — files present, assigned ranges sorted and disjoint
// below level 0 and covering their table's data — and then table.Verify
// of every table, the pass scrub runs: it re-reads every footer, metadata
// copy and data block from the device and checks every record against its
// sequence's bounds, order, Bloom filter and entry count.  Mu is held for
// the structure only, not while a block is read; the report is the sum of
// the tables' passes.
func (s *Set) DeepVerify() (table.VerifyStats, error) {
	var sum table.VerifyStats
	s.Mu.Lock()
	err := s.CheckStructure()
	s.Mu.Unlock()
	if err != nil {
		return sum, err
	}
	err = s.VisitTables(func(_ int, _ uint64, t *table.Table) error {
		st, err := t.Verify(nil)
		sum.Add(st)
		return err
	})
	return sum, err
}
