// Package shard implements the range-partitioned multi-tree front-end:
// a Partition that routes user keys to one of N disjoint, totally
// ordered key ranges, and a Sequencer that allocates global sequence
// ranges across the per-shard commit pipelines while exposing a torn-
// batch-free visible watermark (see DESIGN.md "Commit pipeline").
package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Partition is an immutable description of a range partitioning: N
// shards separated by N-1 strictly increasing split keys.  Shard i
// owns user keys k with splits[i-1] <= k < splits[i] (shard 0 starts
// at the empty key, the last shard is unbounded above).
type Partition struct {
	splits [][]byte
}

// DefaultSplits returns equal-width first-byte split points for n
// shards: split j is the single byte 256*j/n.  Uniformly distributed
// key prefixes then spread evenly; callers with structured keyspaces
// pass their own splits instead.
func DefaultSplits(n int) [][]byte {
	splits := make([][]byte, n-1)
	for j := 1; j < n; j++ {
		splits[j-1] = []byte{byte(256 * j / n)}
	}
	return splits
}

// NewPartition validates count and splits into a Partition.  A nil
// splits slice means DefaultSplits(count).
func NewPartition(count int, splits [][]byte) (Partition, error) {
	if count < 2 {
		return Partition{}, fmt.Errorf("shard: partition needs >= 2 shards, got %d", count)
	}
	if splits == nil {
		splits = DefaultSplits(count)
	}
	if len(splits) != count-1 {
		return Partition{}, fmt.Errorf("shard: %d shards need %d splits, got %d",
			count, count-1, len(splits))
	}
	for i, s := range splits {
		if len(s) == 0 {
			return Partition{}, fmt.Errorf("shard: split %d is empty", i)
		}
		if i > 0 && bytes.Compare(splits[i-1], s) >= 0 {
			return Partition{}, fmt.Errorf("shard: splits not strictly increasing at %d (%q >= %q)",
				i, splits[i-1], s)
		}
	}
	// Deep-copy so later caller mutation cannot skew routing.
	own := make([][]byte, len(splits))
	for i, s := range splits {
		own[i] = append([]byte(nil), s...)
	}
	return Partition{splits: own}, nil
}

// Count reports the number of shards.
func (p Partition) Count() int { return len(p.splits) + 1 }

// Splits returns the split keys (shared slice; callers must not
// mutate).
func (p Partition) Splits() [][]byte { return p.splits }

// IndexOf routes a user key to its owning shard: the number of splits
// at or below the key.
func (p Partition) IndexOf(key []byte) int {
	return sort.Search(len(p.splits), func(i int) bool {
		return bytes.Compare(key, p.splits[i]) < 0
	})
}

// Equal reports whether two partitions route identically.
func (p Partition) Equal(o Partition) bool {
	if len(p.splits) != len(o.splits) {
		return false
	}
	for i := range p.splits {
		if !bytes.Equal(p.splits[i], o.splits[i]) {
			return false
		}
	}
	return true
}

// SHARDS-file wire format: the root marker a sharded database directory
// carries so any later open recovers the exact routing.  Layout:
//
//	magic "IAMSHRD1" | count(uvarint) | {splitLen(uvarint) split}* | crc32(LE)
//
// The trailing CRC covers everything before it, so single-byte rot is
// always detected and surfaces as a typed corruption error at open.

const shardsMagic = "IAMSHRD1"

// ErrBadShardsFile is the sentinel cause for every SHARDS decode
// failure; iamdb wraps it with corruption provenance.
var ErrBadShardsFile = errors.New("shard: malformed SHARDS file")

// Encode serializes the partition for the SHARDS marker file.
func (p Partition) Encode() []byte {
	buf := []byte(shardsMagic)
	buf = binary.AppendUvarint(buf, uint64(p.Count()))
	for _, s := range p.splits {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodePartition parses a SHARDS marker, verifying magic, CRC and
// structure.  Every failure wraps ErrBadShardsFile.
func DecodePartition(data []byte) (Partition, error) {
	fail := func(detail string) (Partition, error) {
		return Partition{}, fmt.Errorf("%w: %s", ErrBadShardsFile, detail)
	}
	if len(data) < len(shardsMagic)+4 {
		return fail("truncated")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fail(fmt.Sprintf("crc mismatch (stored %08x, computed %08x)", sum, got))
	}
	if string(body[:len(shardsMagic)]) != shardsMagic {
		return fail("bad magic")
	}
	p := body[len(shardsMagic):]
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	count, ok := u()
	if !ok || count < 2 || count > 1<<16 {
		return fail("bad shard count")
	}
	splits := make([][]byte, 0, count-1)
	for i := uint64(1); i < count; i++ {
		n, ok := u()
		if !ok || uint64(len(p)) < n {
			return fail("truncated split")
		}
		splits = append(splits, append([]byte(nil), p[:n]...))
		p = p[n:]
	}
	if len(p) != 0 {
		return fail("trailing bytes")
	}
	part, err := NewPartition(int(count), splits)
	if err != nil {
		return fail(err.Error())
	}
	return part, nil
}
