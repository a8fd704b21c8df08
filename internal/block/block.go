// Package block implements the prefix-compressed key/value block shared
// by SSTables and MSTables.  The format is LevelDB's: entries store the
// length of the prefix shared with the previous key, a restart array at
// the block tail records offsets of entries stored with full keys, and
// lookups binary-search the restarts before scanning linearly.
//
//	entry   := shared(varint) unshared(varint) vlen(varint)
//	           key[shared:](unshared bytes) value(vlen bytes)
//	trailer := restart_offset(uint32) * n, restart_count(uint32)
//
// The paper sets data blocks to 4 KiB (Sec. 4.1); Builder treats that as
// a soft target checked by Full.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"

	"iamdb/internal/invariants"
)

// TargetSize is the paper's 4 KiB data-block size.
const TargetSize = 4 * 1024

// RestartInterval is the number of entries between full-key restarts.
const RestartInterval = 16

// ErrCorrupt reports a malformed block.
var ErrCorrupt = errors.New("block: corrupt")

// Compare orders the keys stored in a block.  Blocks store internal
// keys, but the package only needs the ordering, supplied by callers.
type Compare func(a, b []byte) int

// Builder assembles one block.
type Builder struct {
	buf      []byte
	restarts []uint32
	counter  int
	lastKey  []byte
	n        int
}

// NewBuilder returns an empty block builder.
func NewBuilder() *Builder {
	return &Builder{restarts: []uint32{0}}
}

// Add appends a key/value pair.  Keys must arrive in strictly ascending
// order of the comparator the block will be read with; the builder
// cannot check that (internal-key order is not bytewise), but it does
// reject byte-identical consecutive keys, which are corrupt under any
// ordering.
func (b *Builder) Add(key, value []byte) {
	if b.n > 0 && b.counter != 0 && string(key) == string(b.lastKey) {
		panic(fmt.Sprintf("block: duplicate key %q", key))
	}
	shared := 0
	if b.counter < RestartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.n++
}

// Count reports how many entries the builder holds.
func (b *Builder) Count() int { return b.n }

// SizeEstimate reports the encoded size the block would have now.
func (b *Builder) SizeEstimate() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// Full reports whether the block has reached the target size.
func (b *Builder) Full() bool { return b.SizeEstimate() >= TargetSize }

// Empty reports whether no entries have been added.
func (b *Builder) Empty() bool { return b.n == 0 }

// Finish encodes the restart trailer and returns the completed block.
// The builder is reset for reuse.  The block belongs to the caller: the
// builder writes to that storage again only if the caller hands it back
// with Reuse.
func (b *Builder) Finish() []byte {
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	out := b.buf
	b.buf = nil
	b.restarts = append(b.restarts[:0], 0)
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.n = 0
	return out
}

// Reuse hands the storage of a block Finish returned back to the empty
// builder, which builds its next block in it.  The caller must be done
// with the block (a sequence writer: once the device write returned).
func (b *Builder) Reuse(block []byte) {
	if invariants.Enabled {
		invariants.Assertf(b.n == 0, "block: Reuse on a builder holding %d entries", b.n)
		invariants.Poison(block)
	}
	b.buf = block[:0]
}

// Reader provides lookups and iteration over one encoded block.  Its
// restart offsets are read where they lie, in the block's trailer.  A
// Reader may be pointed at one block after another with Init.
type Reader struct {
	data       []byte // entries only, trailer stripped
	restarts   []byte // the trailer's offsets, 4 bytes each
	numRestart int
	cmp        Compare
}

// NewReader parses an encoded block.
func NewReader(data []byte, cmp Compare) (*Reader, error) {
	r := new(Reader)
	if err := r.Init(data, cmp); err != nil {
		return nil, err
	}
	return r, nil
}

// Init points r at an encoded block, after checking that every restart
// offset lies within the block's entries.  After an error r must not be
// iterated until a later Init succeeds.
func (r *Reader) Init(data []byte, cmp Compare) error {
	if len(data) < 4 {
		return ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	trailer := 4 * (n + 1)
	if n <= 0 || trailer > len(data) {
		return ErrCorrupt
	}
	restartStart := len(data) - trailer
	restarts := data[restartStart : len(data)-4]
	for i := 0; i < n; i++ {
		if int(binary.LittleEndian.Uint32(restarts[4*i:])) > restartStart {
			return ErrCorrupt
		}
	}
	*r = Reader{data: data[:restartStart], restarts: restarts, numRestart: n, cmp: cmp}
	return nil
}

// restart returns the offset of restart point i.
func (r *Reader) restart(i int) int { return int(binary.LittleEndian.Uint32(r.restarts[4*i:])) }

// decodeEntry parses the entry at off, returning the key suffix parts
// and value, plus the offset of the next entry.
func (r *Reader) decodeEntry(off int) (shared, unshared, vlen, keyOff int, err error) {
	p := r.data[off:]
	s, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return 0, 0, 0, 0, ErrCorrupt
	}
	u, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return 0, 0, 0, 0, ErrCorrupt
	}
	v, n3 := binary.Uvarint(p[n1+n2:])
	if n3 <= 0 {
		return 0, 0, 0, 0, ErrCorrupt
	}
	keyOff = off + n1 + n2 + n3
	if keyOff+int(u)+int(v) > len(r.data) {
		return 0, 0, 0, 0, ErrCorrupt
	}
	return int(s), int(u), int(v), keyOff, nil
}

// Iter is a forward iterator over a block.  The usual pattern:
//
//	for it.First(); it.Valid(); it.Next() { ... }
//
// or Seek to start from the first key >= target.
type Iter struct {
	r     *Reader
	off   int // offset of current entry
	next  int // offset of next entry
	key   []byte
	value []byte
	err   error
	valid bool
}

// Iter returns a new iterator positioned before the first entry.
func (r *Reader) Iter() *Iter { return &Iter{r: r} }

// Reset points it at r, before the first entry, keeping its key storage
// for the entries it decodes next.
func (it *Iter) Reset(r *Reader) { *it = Iter{r: r, key: it.key[:0]} }

// First positions at the first entry.
func (it *Iter) First() {
	it.next = 0
	it.key = it.key[:0]
	it.valid = false
	it.err = nil
	it.Next()
}

// Next advances to the following entry.
func (it *Iter) Next() {
	if it.err != nil {
		return
	}
	if it.next >= len(it.r.data) {
		it.valid = false
		return
	}
	shared, unshared, vlen, keyOff, err := it.r.decodeEntry(it.next)
	if err != nil {
		it.err = err
		it.valid = false
		return
	}
	if shared > len(it.key) {
		it.err = ErrCorrupt
		it.valid = false
		return
	}
	it.key = append(it.key[:shared], it.r.data[keyOff:keyOff+unshared]...)
	it.value = it.r.data[keyOff+unshared : keyOff+unshared+vlen]
	it.off = it.next
	it.next = keyOff + unshared + vlen
	it.valid = true
}

// Seek positions at the first entry with key >= target.
func (it *Iter) Seek(target []byte) {
	// Binary search restarts for the last restart whose key < target.
	lo, hi := 0, it.r.numRestart-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		_, unshared, _, keyOff, err := it.r.decodeEntry(it.r.restart(mid))
		if err != nil {
			it.err = err
			it.valid = false
			return
		}
		fullKey := it.r.data[keyOff : keyOff+unshared] // restart entries have shared=0
		if it.r.cmp(fullKey, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.next = it.r.restart(lo)
	it.key = it.key[:0]
	it.err = nil
	for {
		it.Next()
		if !it.valid || it.r.cmp(it.key, target) >= 0 {
			return
		}
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return it.valid }

// Key returns the current key; valid until the next positioning call.
func (it *Iter) Key() []byte { return it.key }

// Value returns the current value; it aliases the block buffer.
func (it *Iter) Value() []byte { return it.value }

// Err reports any corruption encountered.
func (it *Iter) Err() error { return it.err }

// Last positions at the final entry: walk forward from the last
// restart point until the block ends.
func (it *Iter) Last() {
	r := it.r
	it.err = nil
	it.valid = false
	if len(r.data) == 0 {
		return
	}
	it.next = r.restart(r.numRestart - 1)
	it.key = it.key[:0]
	for {
		it.Next()
		if !it.valid || it.next >= len(r.data) {
			return
		}
	}
}

// Prev moves to the entry before the current one, or invalidates at the
// front.  Cost is a forward walk from the nearest restart point, as in
// LevelDB.
func (it *Iter) Prev() {
	if !it.valid || it.err != nil {
		it.valid = false
		return
	}
	cur := it.off
	if cur == 0 {
		it.valid = false
		return
	}
	// Largest restart strictly before the current entry.
	lo, hi := 0, it.r.numRestart-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if it.r.restart(mid) < cur {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.next = it.r.restart(lo)
	it.key = it.key[:0]
	it.valid = false
	for {
		before := it.next
		it.Next()
		if !it.valid || it.next > cur {
			// Should not happen on a well-formed block.
			it.valid = false
			return
		}
		if it.next == cur {
			_ = before
			return // positioned at the entry just before cur
		}
	}
}

// SeekForPrev positions at the last entry with key <= target.
func (it *Iter) SeekForPrev(target []byte) {
	it.Seek(target)
	if !it.valid {
		if it.err == nil {
			it.Last() // every key < target
		}
		return
	}
	if it.r.cmp(it.key, target) > 0 {
		it.Prev()
	}
}
