package iamdb

import (
	"encoding/binary"
	"errors"

	"iamdb/internal/kv"
	"iamdb/internal/memtable"
)

// Batch collects writes to apply atomically: either every operation in
// the batch becomes visible (and durable in one WAL record) or none.
type Batch struct {
	ops []batchOp

	// gcOld, when non-nil, marks this as a value-log GC rewrite batch:
	// op i carries a live record's value and gcOld[i] the pointer
	// encoding it is replacing.  The commit leader drops any op whose key
	// no longer resolves to that exact pointer — or whose key any
	// ordinary batch in the same commit group writes — so a GC rewrite
	// can never resurrect a value a concurrent write or delete
	// superseded, regardless of sequence order within the group; it
	// appends the values of the rest to the value log (see
	// separateGroup).
	gcOld [][]byte

	// gcFailed is set by the commit leader when a rewrite op's liveness
	// check failed with a read error (not ErrNotFound): the collector
	// must then keep the old segment, since the op was dropped without
	// proof the record is dead.
	gcFailed bool
}

type batchOp struct {
	kind kv.Kind
	key  []byte
	val  []byte
}

// Put queues a key/value insert.  It copies key and value: a batch can
// outlive the caller's buffers, which may change before Write.  (DB.Put,
// which is synchronous, commits the caller's slices without a copy.)
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{kv.KindSet,
		append([]byte(nil), key...), append([]byte(nil), value...)})
}

// Delete queues a key deletion.  Like Put, it copies key.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{kv.KindDelete, append([]byte(nil), key...), nil})
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0]; b.gcOld = nil; b.gcFailed = false }

// appendEncoded serializes the batch onto buf and returns the extended
// slice:
//
//	startSeq(varint) count(varint)
//	{kind(1) keyLen(varint) key [valLen(varint) val]}*
//
// The encoding is self-delimiting, so a group commit can concatenate
// several batches into one WAL record and recovery can decode them
// back-to-back.
func (b *Batch) appendEncoded(buf []byte, startSeq kv.Seq) []byte {
	buf = binary.AppendUvarint(buf, uint64(startSeq))
	buf = binary.AppendUvarint(buf, uint64(len(b.ops)))
	for _, op := range b.ops {
		buf = append(buf, byte(op.kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.key)))
		buf = append(buf, op.key...)
		if op.kind != kv.KindDelete {
			// Set carries the value; ValuePtr carries the pointer
			// encoding.  Only tombstones are value-free.
			buf = binary.AppendUvarint(buf, uint64(len(op.val)))
			buf = append(buf, op.val...)
		}
	}
	return buf
}

var errBadBatch = errors.New("iamdb: corrupt batch record")

// decodeRecordInto replays one WAL record — one or more concatenated
// batch encodings, the way the commit leader writes a group — into a
// memtable, returning the last sequence number it used.
func decodeRecordInto(rec []byte, mt *memtable.MemTable) (kv.Seq, error) {
	var last kv.Seq
	for len(rec) > 0 {
		seq, rest, err := decodeOneBatch(rec, mt)
		if err != nil {
			return 0, err
		}
		if seq > last {
			last = seq
		}
		rec = rest
	}
	return last, nil
}

// decodeOneBatch replays the first batch encoding in rec, returning
// its last sequence number and the remaining bytes.
func decodeOneBatch(rec []byte, mt *memtable.MemTable) (kv.Seq, []byte, error) {
	p := rec
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	start, ok := u()
	if !ok {
		return 0, nil, errBadBatch
	}
	count, ok := u()
	if !ok {
		return 0, nil, errBadBatch
	}
	seq := kv.Seq(start)
	for i := uint64(0); i < count; i++ {
		if len(p) < 1 {
			return 0, nil, errBadBatch
		}
		kind := kv.Kind(p[0])
		p = p[1:]
		klen, ok := u()
		if !ok || uint64(len(p)) < klen {
			return 0, nil, errBadBatch
		}
		key := p[:klen]
		p = p[klen:]
		var val []byte
		if kind == kv.KindSet || kind == kv.KindValuePtr {
			vlen, ok := u()
			if !ok || uint64(len(p)) < vlen {
				return 0, nil, errBadBatch
			}
			val = p[:vlen]
			p = p[vlen:]
		} else if kind != kv.KindDelete {
			return 0, nil, errBadBatch
		}
		mt.Add(seq, kind, key, val)
		seq++
	}
	return seq - 1, p, nil
}
