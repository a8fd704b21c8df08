package tableset

import (
	"fmt"

	"iamdb/internal/kv"
)

// CheckStructure is what every engine's CheckInvariants starts from (the
// trees add their level thresholds): every table's file exists and its
// data lies inside its assigned range, level 0 is ordered by file number,
// deeper levels are sorted and disjoint.  Caller holds Mu.
func (s *Set) CheckStructure() error {
	for i, lvl := range s.levels {
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

// VerifyReport summarizes a deep consistency check.
type VerifyReport struct {
	Levels       int
	Nodes        int
	Sequences    int
	Records      uint64
	BloomProbes  int
	RangeChecked int
}

func (r VerifyReport) String() string {
	return fmt.Sprintf("levels=%d nodes=%d seqs=%d records=%d bloom-probes=%d",
		r.Levels, r.Nodes, r.Sequences, r.Records, r.BloomProbes)
}

// DeepVerify walks every table and sequence of every level, checking the
// structural and data invariants no engine policy is needed for:
//
//  1. everything CheckStructure checks: files present, assigned ranges
//     sorted and disjoint below level 0 and covering their table's data,
//  2. per-sequence metadata bounds match the actual keys,
//  3. sequences iterate in strict internal-key order,
//  4. every user key probes positive in its sequence's Bloom filter,
//  5. per-table Get finds a sample of the table's own keys.
//
// It reads every data block, so it is for tests and tooling, not the
// hot path.
func (s *Set) DeepVerify() (VerifyReport, error) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	rep := VerifyReport{Levels: len(s.levels) - s.cfg.MinLevel}
	if err := s.CheckStructure(); err != nil {
		return rep, err
	}
	for i, lvl := range s.levels {
		for _, tb := range lvl {
			rep.Nodes++
			if err := verifyTable(i, tb, &rep); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

func verifyTable(lvl int, tb *Table, rep *VerifyReport) error {
	numSeqs := tb.NumSeqs()
	rep.Sequences += numSeqs
	for s := 0; s < numSeqs; s++ {
		if err := verifySeq(lvl, tb, s, rep); err != nil {
			return err
		}
	}
	return nil
}

func verifySeq(lvl int, tb *Table, s int, rep *VerifyReport) error {
	meta := tb.SeqMetaAt(s)
	it := tb.SeqIter(s)
	defer it.Close()
	var prev []byte
	var count uint64
	var sampleKeys [][]byte
	for it.First(); it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && kv.CompareInternal(prev, k) >= 0 {
			return fmt.Errorf("L%d node %d seq %d: keys out of order", lvl, tb.ID(), s)
		}
		u, _, _, ok := kv.ParseInternalKey(k)
		if !ok {
			return fmt.Errorf("L%d node %d seq %d: bad internal key", lvl, tb.ID(), s)
		}
		if !tb.rng.Contains(u) {
			return fmt.Errorf("L%d node %d seq %d: key %q outside assigned range %v",
				lvl, tb.ID(), s, u, tb.rng)
		}
		if kv.CompareInternal(k, meta.Smallest) < 0 || kv.CompareInternal(k, meta.Largest) > 0 {
			return fmt.Errorf("L%d node %d seq %d: key %q outside metadata bounds",
				lvl, tb.ID(), s, u)
		}
		if !meta.Bloom.MayContain(u) {
			return fmt.Errorf("L%d node %d seq %d: bloom false negative for %q",
				lvl, tb.ID(), s, u)
		}
		rep.BloomProbes++
		if count%97 == 0 {
			sampleKeys = append(sampleKeys, append([]byte(nil), u...))
		}
		prev = append(prev[:0], k...)
		count++
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("L%d node %d seq %d: %w", lvl, tb.ID(), s, err)
	}
	if count != meta.Entries {
		return fmt.Errorf("L%d node %d seq %d: %d records, metadata says %d",
			lvl, tb.ID(), s, count, meta.Entries)
	}
	rep.Records += count
	// Sampled point lookups through the table's own Get path.
	for _, u := range sampleKeys {
		if _, _, _, found, err := tb.Get(u, kv.MaxSeq); err != nil || !found {
			return fmt.Errorf("L%d node %d: own key %q unfindable (%v)", lvl, tb.ID(), u, err)
		}
		rep.RangeChecked++
	}
	return nil
}
