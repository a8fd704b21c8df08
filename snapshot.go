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
// The sequence is the visible watermark — a consistent cut no torn
// cross-store batch can straddle — read and registered in one critical
// section of the snapshot registry (see DB.pin), which every store's
// merges consult for their horizon.
func (db *DB) GetSnapshot() *Snapshot {
	return &Snapshot{db: db, seq: db.pin()}
}

// Release ends the snapshot's protection; idempotent.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	s.db.unpin(s.seq)
	s.db.kickVlogGC()
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
	st := db.storeFor(key)
	v, kind, err := st.getAt(key, s.seq)
	if err != nil {
		return nil, err
	}
	// Pointer records resolve through the owning store's value log; GC
	// keeps every segment a live snapshot can still reference.
	if kind == kv.KindValuePtr {
		return st.resolvePointer(nil, key, v)
	}
	return finishGet(v, kind)
}

// NewIterator iterates the DB as of the snapshot; on a closed DB or a
// released snapshot it returns an iterator that is never Valid and whose
// Err is ErrClosed.
func (s *Snapshot) NewIterator() *Iterator {
	if s.released {
		return s.db.closedIterator()
	}
	return s.db.newIteratorAt(s.seq)
}
