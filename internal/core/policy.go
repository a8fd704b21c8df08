package core

import (
	"iamdb/internal/amp"
	"iamdb/internal/tableset"
)

// This file implements the flush strategy of Sec. 5.1: the choice
// between appending and merging when a flush delivers records to a
// child, and the tuning of the mixed level m and sequence cap k from
// the memory budget (Sec. 5.1.3, Eq. (1) and (2)).

// shouldMerge decides whether delivering to kid at level dst rewrites
// the child (merge) or appends a new sequence.
//
//   - An empty child is always appended (the append is the whole
//     content).
//   - A full leaf child always merges, chunking into nodes of initial
//     size Cts (Fig. 4) — this holds for LSA and IAM alike.
//   - LSA otherwise always appends (Sec. 4).
//   - IAM appends above the mixed level, merges below it, and at the
//     mixed level merges only the children that already carry k
//     sequences (Sec. 5.1.2, Fig. 5).
func (t *Tree) shouldMerge(dst int, kid *tableset.Table) bool {
	if kid.NumSeqs() == 0 {
		return false
	}
	if dst == t.n() && t.full(kid) {
		return true
	}
	if t.cfg.Policy == LSA {
		return false
	}
	m, k := t.curM, t.curK
	if m == 0 {
		m, k = t.mixedLevelLocked()
	}
	switch {
	case dst < m:
		return false
	case dst > m:
		return true
	default:
		return kid.NumSeqs() >= k
	}
}

// MixedLevel reports the current (m, k) the IAM policy would use; for
// LSA it reports m = n+1 (appending everywhere).
func (t *Tree) MixedLevel() (m, k int) {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	if t.cfg.Policy == LSA {
		return t.n() + 1, t.cfg.K
	}
	return t.mixedLevelLocked()
}

// retuneMK refreshes the cached (m, k) once per memtable flush — the
// paper samples cache residency periodically rather than per record
// (Sec. 5.1.3), and recomputing per child delivery would rescan every
// level's node list.
func (t *Tree) retuneMK() {
	if t.cfg.Policy == IAM {
		t.curM, t.curK = t.mixedLevelLocked()
	}
}

// mixedLevelLocked tunes m and k so all appended sequences fit in the
// memory budget M:
//
//	sum_{j<m} D_j  +  D_m*(k-1)/t  <=  M        (Eq. 2)
//
// where D_m*(k-1)/t is S_{m,k}, the expected bytes of appended
// sequences in the mixed level (Eq. 1).  The largest m, then the
// largest k <= cfg.K satisfying the inequality are preferred, since
// larger values mean fewer merges (Sec. 5.1.3): amp.TuneMK, the model's
// statement of it, is what runs.
func (t *Tree) mixedLevelLocked() (int, int) {
	if t.cfg.FixedM > 0 {
		return t.cfg.FixedM, t.cfg.K
	}
	if t.cfg.MemBudget <= 0 {
		// No budget information: degenerate to LSA (append always).
		return t.n() + 1, t.cfg.K
	}
	return amp.TuneMK(t.levelDataSizesLocked(), t.cfg.MemBudget, t.cfg.K, t.cfg.Fanout)
}
