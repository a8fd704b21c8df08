// Package kv defines the internal key-value model shared by every engine
// in IamDB: internal keys carrying MVCC sequence numbers and operation
// kinds, the ordering used throughout the trees, and user-key ranges.
//
// An internal key is the user key followed by an 8-byte little-endian
// trailer packing a 56-bit sequence number and an 8-bit kind:
//
//	| user key ... | (seq << 8) | kind  (8 bytes LE) |
//
// Internal keys order by user key ascending, then by sequence number
// descending (newest first), then by kind descending.  This matches the
// LevelDB format the paper's IamDB implementation builds on.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind describes what a record does to its key.
type Kind uint8

const (
	// KindDelete marks a tombstone: the key is deleted as of the
	// record's sequence number.
	KindDelete Kind = 0
	// KindSet stores a value for the key.
	KindSet Kind = 1
	// KindValuePtr stores a pointer into the value log instead of the
	// value itself (key-value separation): the record's value bytes are
	// a vlog.Pointer encoding, resolved lazily by the DB layer.  To the
	// trees it is an ordinary live record.
	KindValuePtr Kind = 2

	// MaxKind is the largest valid kind.  Seek targets that must land
	// at or before every version of a user key at a given sequence use
	// it: the trailer orders descending, so the largest kind sorts
	// first among records sharing a sequence number.
	MaxKind = KindValuePtr

	maxKind = MaxKind
)

func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "delete"
	case KindSet:
		return "set"
	case KindValuePtr:
		return "valueptr"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Seq is an MVCC sequence number.  Only the low 56 bits are significant.
type Seq uint64

// MaxSeq is the largest representable sequence number.
const MaxSeq Seq = (1 << 56) - 1

// TrailerLen is the length in bytes of the internal-key trailer.
const TrailerLen = 8

// PackTrailer combines a sequence number and kind into the 8-byte trailer
// value.
func PackTrailer(seq Seq, kind Kind) uint64 {
	return uint64(seq)<<8 | uint64(kind)
}

// UnpackTrailer splits a trailer value into sequence number and kind.
func UnpackTrailer(t uint64) (Seq, Kind) {
	return Seq(t >> 8), Kind(t & 0xff)
}

// AppendInternalKey appends the internal-key encoding of (ukey, seq, kind)
// to dst and returns the extended slice.
func AppendInternalKey(dst []byte, ukey []byte, seq Seq, kind Kind) []byte {
	dst = append(dst, ukey...)
	var tr [TrailerLen]byte
	binary.LittleEndian.PutUint64(tr[:], PackTrailer(seq, kind))
	return append(dst, tr[:]...)
}

// MakeInternalKey builds a fresh internal key for (ukey, seq, kind).
func MakeInternalKey(ukey []byte, seq Seq, kind Kind) []byte {
	return AppendInternalKey(make([]byte, 0, len(ukey)+TrailerLen), ukey, seq, kind)
}

// ParseInternalKey splits an internal key into its components.  It
// returns ok=false if ikey is too short or carries an unknown kind.
func ParseInternalKey(ikey []byte) (ukey []byte, seq Seq, kind Kind, ok bool) {
	if len(ikey) < TrailerLen {
		return nil, 0, 0, false
	}
	n := len(ikey) - TrailerLen
	t := binary.LittleEndian.Uint64(ikey[n:])
	seq, kind = UnpackTrailer(t)
	if kind > maxKind {
		return nil, 0, 0, false
	}
	return ikey[:n], seq, kind, true
}

// UserKey returns the user-key prefix of an internal key.  It panics if
// ikey is shorter than the trailer.
func UserKey(ikey []byte) []byte {
	return ikey[:len(ikey)-TrailerLen]
}

// Trailer returns the trailer of an internal key.
func Trailer(ikey []byte) uint64 {
	return binary.LittleEndian.Uint64(ikey[len(ikey)-TrailerLen:])
}

// SeqOf returns the sequence number of an internal key.
func SeqOf(ikey []byte) Seq {
	s, _ := UnpackTrailer(Trailer(ikey))
	return s
}

// CompareUser orders user keys bytewise ascending.
func CompareUser(a, b []byte) int { return bytes.Compare(a, b) }

// Fence is the first 8 bytes of b, big-endian and zero-padded: byte
// strings in bytewise order have fences in the same order, or equal
// ones, so a search can compare fences and fall back to full keys only
// on a tie.
func Fence(b []byte) uint64 {
	var buf [8]byte
	copy(buf[:], b)
	return binary.BigEndian.Uint64(buf[:])
}

// CompareInternal orders internal keys: user key ascending, then trailer
// descending (newer sequence numbers sort first within a user key).
func CompareInternal(a, b []byte) int {
	ua, ub := UserKey(a), UserKey(b)
	if c := bytes.Compare(ua, ub); c != 0 {
		return c
	}
	ta, tb := Trailer(a), Trailer(b)
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	default:
		return 0
	}
}

// InternalKeyString renders an internal key for debugging.
func InternalKeyString(ikey []byte) string {
	u, s, k, ok := ParseInternalKey(ikey)
	if !ok {
		return fmt.Sprintf("badikey(%x)", ikey)
	}
	return fmt.Sprintf("%q@%d:%s", u, s, k)
}
