package iamdb

import (
	"iamdb/internal/kv"
)

// Snapshot is a consistent read-only view of the DB as of its creation.
// Merges retain every record version a live snapshot can still see
// (Sec. 5.2's deferred deletes respect this), so release snapshots
// promptly to let compaction reclaim space.
type Snapshot struct {
	db       *DB
	seq      kv.Seq
	released bool
}

// GetSnapshot captures the current state.  Callers must Release it.
// The visible sequence comes from the lock-free read snapshot; only
// the snapshot registry (which merges consult for their horizon) takes
// a small dedicated lock, never db.mu.  Pushing the horizon down into
// the engine does take the engine's own mutex under snapMu:
//
// On a sharded DB the sequence is the global watermark — a consistent
// cut no torn cross-shard batch can straddle — and the pin is fanned
// out to every shard's registry, so each shard's merges respect the
// snapshot's horizon.
//
//iamlint:lockorder snapMu < tableset.Set.Mu
func (db *DB) GetSnapshot() *Snapshot {
	s := &Snapshot{db: db, seq: db.visibleSeq()}
	if ss := db.shards; ss != nil {
		for _, kid := range ss.kids {
			kid.pinAt(s.seq)
		}
		return s
	}
	db.pinAt(s.seq)
	return s
}

// pinAt registers one snapshot reference at seq in this DB's registry.
func (db *DB) pinAt(seq kv.Seq) {
	db.snapMu.Lock()
	db.snaps[seq]++
	db.updateHorizonLocked()
	db.snapMu.Unlock()
}

// unpinAt drops one snapshot reference at seq, nudging the value-log
// collector: deferred segment deletions wait for the last pin.
func (db *DB) unpinAt(seq kv.Seq) {
	db.snapMu.Lock()
	if db.snaps[seq]--; db.snaps[seq] <= 0 {
		delete(db.snaps, seq)
	}
	db.updateHorizonLocked()
	db.snapMu.Unlock()
	if db.vl != nil {
		db.kickVlogGC()
	}
}

// Release ends the snapshot's protection; idempotent.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	db := s.db
	if ss := db.shards; ss != nil {
		for _, kid := range ss.kids {
			kid.unpinAt(s.seq)
		}
		return
	}
	db.unpinAt(s.seq)
}

// updateHorizonLocked pushes the oldest live snapshot (or "none") down
// to the engine so merges know what they may drop.  Caller holds
// db.snapMu.
func (db *DB) updateHorizonLocked() {
	h := kv.MaxSeq
	for seq := range db.snaps {
		if seq < h {
			h = seq
		}
	}
	db.eng.SetHorizon(h)
}

// Get reads a key as of the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.released {
		return nil, ErrClosed
	}
	db := s.db
	if db.closedA.Load() {
		return nil, ErrClosed
	}
	var v []byte
	var kind kv.Kind
	var err error
	owner := db
	if ss := db.shards; ss != nil {
		owner = ss.kid(key)
	}
	st := owner.state.Load()
	v, kind, err = owner.getRawAt(key, s.seq, st.mem, st.imm)
	if err != nil {
		return nil, err
	}
	// Pointer records resolve through the owning store's value log; GC
	// keeps every segment a live snapshot can still reference.
	v, kind, err = owner.maybeResolve(key, v, kind)
	if err != nil {
		return nil, err
	}
	return finishGet(v, kind)
}

// NewIterator iterates the DB as of the snapshot.
func (s *Snapshot) NewIterator() *Iterator {
	return s.db.newIteratorAt(s.seq)
}
