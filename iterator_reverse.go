package iamdb

import (
	"iamdb/internal/kv"
)

// Reverse iteration.  Internal keys order a user key's versions newest
// first, so walking backward visits them oldest to newest; the visible
// version of a key is therefore the last one at or below the snapshot
// seen before crossing into the preceding user key.

// Last positions at the largest live key.
func (it *Iterator) Last() {
	it.in.Last()
	it.findPrevVisible()
}

// SeekForPrev positions at the last live key <= ukey.
func (it *Iterator) SeekForPrev(ukey []byte) {
	// (ukey, seq 0, tombstone) is the very last possible version of
	// ukey in internal order, so SeekForPrev lands on ukey's oldest
	// record (or an earlier key) and resolution proceeds from there.
	it.in.SeekForPrev(kv.MakeInternalKey(ukey, 0, kv.KindDelete))
	it.findPrevVisible()
}

// Prev moves to the largest live key strictly below the current one.
func (it *Iterator) Prev() {
	if !it.valid {
		return
	}
	// (key, MaxSeq, MaxKind) sorts before every stored version of key,
	// so SeekForPrev lands on the previous user key's last record.
	it.in.SeekForPrev(kv.MakeInternalKey(it.key, kv.MaxSeq, kv.MaxKind))
	it.findPrevVisible()
}

// findPrevVisible scans backward resolving the first live user key at
// or before the inner iterator's position.
func (it *Iterator) findPrevVisible() {
	it.valid = false
	it.backward = true
	in := it.in
	var curUser []byte
	var bestVal []byte
	var bestKind kv.Kind
	have := false
	emit := func() {
		it.key = append(it.key[:0], curUser...)
		it.val = append(it.val[:0], bestVal...)
		it.vkind = bestKind
		it.valid = true
	}
	for in.Valid() {
		u, seq, kind, ok := kv.ParseInternalKey(in.Key())
		if !ok {
			it.err = errBadBatch
			return
		}
		if curUser != nil && kv.CompareUser(u, curUser) != 0 {
			// Crossed into an earlier user key: settle the current one.
			if have && bestKind != kv.KindDelete {
				emit()
				return // inner iterator rests inside the earlier key
			}
			// Tombstoned or fully shadowed: move on to this key.
			curUser = nil
			have = false
		}
		if curUser == nil {
			curUser = append([]byte(nil), u...)
		}
		if seq <= it.snap {
			// Walking oldest to newest: later visible versions
			// overwrite earlier ones, leaving the newest visible.
			have = true
			bestKind = kind
			bestVal = append(bestVal[:0], in.Value()...)
		}
		in.Prev()
	}
	if err := in.Err(); err != nil {
		it.err = err
		return
	}
	if curUser != nil && have && bestKind != kv.KindDelete {
		emit()
	}
}
