// Package bloom implements the Bloom filter [Bloom 1970] IamDB attaches
// to every table sequence.  The paper allocates 14 bits per record for a
// ~0.2% false-positive rate, which makes the read amplification of point
// lookups about 1 when the key exists and about 0 when it does not,
// identically for LSM, LSA and IAM (Sec. 5.3.2).
//
// The construction is LevelDB's: a single 32-bit hash per key, extended
// to k probe positions by double hashing with a 17-bit rotation delta.
package bloom

import "encoding/binary"

// DefaultBitsPerKey matches the paper's 14 bits per record.
const DefaultBitsPerKey = 14

// Filter is an immutable encoded Bloom filter.  The last byte stores the
// number of probes k.
type Filter []byte

// probes derives the probe count from bits per key, clamped to [1, 30].
func probes(bitsPerKey int) int {
	k := int(float64(bitsPerKey) * 0.69) // ~ bitsPerKey * ln(2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return k
}

// Build creates a filter over the given keys with the given density.
func Build(keys [][]byte, bitsPerKey int) Filter {
	f := newFilter(len(keys), bitsPerKey)
	for _, key := range keys {
		f.add(Hash(key))
	}
	return f
}

// BuildFromHashes creates the filter Build would over the keys whose
// Hash values are given: a writer streaming a sequence keeps four bytes
// per key instead of a copy of it.
func BuildFromHashes(hashes []uint32, bitsPerKey int) Filter {
	f := newFilter(len(hashes), bitsPerKey)
	for _, h := range hashes {
		f.add(h)
	}
	return f
}

// newFilter sizes an empty filter for n keys.
func newFilter(n, bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := probes(bitsPerKey)
	bits := n * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	f := make(Filter, nBytes+1)
	f[nBytes] = byte(k)
	return f
}

// add sets the probe bits of the key hashing to h.
func (f Filter) add(h uint32) {
	k := int(f[len(f)-1])
	bits := uint32((len(f) - 1) * 8)
	delta := h>>17 | h<<15
	for i := 0; i < k; i++ {
		pos := h % bits
		f[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

// MayContain reports whether the key might be in the set the filter was
// built over.  False positives occur at roughly 0.2% with 14 bits/key;
// false negatives never occur.
func (f Filter) MayContain(key []byte) bool { return f.MayContainHash(Hash(key)) }

// MayContainHash is MayContain for the key whose Hash is h: a point read
// hashes its key once and probes every filter on its way with the result.
func (f Filter) MayContainHash(h uint32) bool {
	if len(f) < 2 {
		return false
	}
	k := int(f[len(f)-1])
	if k > 30 {
		// Reserved for future encodings; treat as always-match.
		return true
	}
	bits := uint32((len(f) - 1) * 8)
	delta := h>>17 | h<<15
	for i := 0; i < k; i++ {
		pos := h % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Hash is the 32-bit Murmur-like hash LevelDB uses for its filters.
func Hash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	for len(data) >= 4 {
		h += binary.LittleEndian.Uint32(data)
		h *= m
		h ^= h >> 16
		data = data[4:]
	}
	switch len(data) {
	case 3:
		h += uint32(data[2]) << 16
		fallthrough
	case 2:
		h += uint32(data[1]) << 8
		fallthrough
	case 1:
		h += uint32(data[0])
		h *= m
		h ^= h >> 24
	}
	return h
}
