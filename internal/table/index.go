package table

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"

	"iamdb/internal/block"
	"iamdb/internal/kv"
)

// index is a sequence's block index as fence pointers, held in memory for
// the life of the table: per data block, the separator RawIndex names it
// by (the block's last internal key), its offset and length, and a fence.
// Every user key of a sequence shares the prefix of its Smallest and
// Largest user keys, so a separator's fence is the 8 bytes of its user
// key that follow that prefix, big-endian and zero-padded: separators in
// index order have fences in the same order, or equal ones.  RawIndex
// stays the on-disk form; the writer builds the index beside it and
// parseMeta decodes it from it when a table opens.
type index struct {
	prefix []byte // the user-key prefix every key of the sequence shares
	keys   []byte // the separators, back to back
	blocks []blockRef
}

// blockRef is one data block as the index names it.
type blockRef struct {
	fence  uint64
	off    uint64
	length uint32
	end    uint32 // the block's separator ends at keys[end]
}

// sep returns block i's separator.
func (x *index) sep(i int) []byte {
	var start uint32
	if i > 0 {
		start = x.blocks[i-1].end
	}
	return x.keys[start:x.blocks[i].end]
}

// search returns the first block whose separator is >= target: the one
// block that can hold the first key at or above target, or len(blocks)
// when target is above the whole sequence.  It binary-searches the fences
// and compares full internal keys only where a fence ties with target's.
func (x *index) search(target []byte) int {
	u := kv.UserKey(target)
	if !bytes.HasPrefix(u, x.prefix) {
		// Every separator has the prefix: u sorts below them all or
		// above them all.
		if bytes.Compare(u, x.prefix) < 0 {
			return 0
		}
		return len(x.blocks)
	}
	f := kv.Fence(u[len(x.prefix):])
	i, j := 0, len(x.blocks)
	for i < j {
		h := int(uint(i+j) >> 1)
		if b := &x.blocks[h]; b.fence < f || b.fence == f && kv.CompareInternal(x.sep(h), target) < 0 {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// add names the block at [off, off+length) whose last key is sep.
func (x *index) add(sep []byte, off, length uint64) {
	x.keys = append(x.keys, sep...)
	x.blocks = append(x.blocks, blockRef{off: off, length: uint32(length), end: uint32(len(x.keys))})
}

// seal returns a copy of x in storage of its own, fenced for the
// sequence bounded by smallest and largest, or ErrCorrupt if a bound or
// a separator is not an internal key with their shared prefix.
func (x *index) seal(smallest, largest []byte) (index, error) {
	if len(smallest) < kv.TrailerLen || len(largest) < kv.TrailerLen {
		return index{}, ErrCorrupt
	}
	lo, hi := kv.UserKey(smallest), kv.UserKey(largest)
	n := 0
	for n < len(lo) && n < len(hi) && lo[n] == hi[n] {
		n++
	}
	out := index{prefix: lo[:n:n], keys: bytes.Clone(x.keys), blocks: slices.Clone(x.blocks)}
	for i := range out.blocks {
		sep := out.sep(i)
		if len(sep) < kv.TrailerLen || !bytes.HasPrefix(kv.UserKey(sep), out.prefix) {
			return index{}, ErrCorrupt
		}
		out.blocks[i].fence = kv.Fence(kv.UserKey(sep)[n:])
	}
	return out, nil
}

// equal reports whether x and o name the same blocks by the same keys.
func (x *index) equal(o *index) bool {
	return bytes.Equal(x.prefix, o.prefix) && bytes.Equal(x.keys, o.keys) && slices.Equal(x.blocks, o.blocks)
}

// decodeIndex decodes a sequence's RawIndex into its fence pointers.
func decodeIndex(raw, smallest, largest []byte) (index, error) {
	r, err := block.NewReader(raw, kv.CompareInternal)
	if err != nil {
		return index{}, err
	}
	var x index
	it := r.Iter()
	for it.First(); it.Valid(); it.Next() {
		v := it.Value()
		off, n := binary.Uvarint(v)
		if n <= 0 {
			return index{}, ErrCorrupt
		}
		length, m := binary.Uvarint(v[n:])
		if m <= 0 || length > math.MaxUint32 {
			return index{}, ErrCorrupt
		}
		x.add(it.Key(), off, length)
	}
	if err := it.Err(); err != nil {
		return index{}, err
	}
	if len(x.blocks) == 0 {
		return index{}, ErrCorrupt
	}
	return x.seal(smallest, largest)
}
