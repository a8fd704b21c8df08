package kv

import (
	"bytes"
	"fmt"
)

// Range is a closed interval [Lo, Hi] of user keys.  The zero Range is
// empty.  LSA/IAM nodes carry a Range; the ranges of the nodes within one
// on-disk level are disjoint and sorted but need not be contiguous.
type Range struct {
	Lo, Hi []byte
}

// MakeRange builds a range from two user keys in either order.
func MakeRange(a, b []byte) Range {
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	return Range{Lo: cloneKey(a), Hi: cloneKey(b)}
}

// cloneKey copies a user key into a fresh, always non-nil slice so that
// an empty user key remains distinguishable from an unset range bound.
func cloneKey(k []byte) []byte {
	return append(make([]byte, 0, len(k)), k...)
}

// Empty reports whether the range holds no keys.  A range is empty only
// when both bounds are nil; a single-key range has Lo == Hi non-nil.
func (r Range) Empty() bool { return r.Lo == nil && r.Hi == nil }

// Contains reports whether the user key k falls inside the range.
func (r Range) Contains(k []byte) bool {
	if r.Empty() {
		return false
	}
	return bytes.Compare(r.Lo, k) <= 0 && bytes.Compare(k, r.Hi) <= 0
}

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool {
	if r.Empty() || o.Empty() {
		return false
	}
	return bytes.Compare(r.Lo, o.Hi) <= 0 && bytes.Compare(o.Lo, r.Hi) <= 0
}

// Before reports whether every key of r sorts strictly before every key
// of o.
func (r Range) Before(o Range) bool {
	if r.Empty() || o.Empty() {
		return false
	}
	return bytes.Compare(r.Hi, o.Lo) < 0
}

// Extend grows the range to include the user key k and returns the
// result.  Extending an empty range yields the single-key range [k, k].
func (r Range) Extend(k []byte) Range {
	if r.Empty() {
		return MakeRange(k, k)
	}
	if bytes.Compare(k, r.Lo) < 0 {
		r.Lo = cloneKey(k)
	}
	if bytes.Compare(k, r.Hi) > 0 {
		r.Hi = cloneKey(k)
	}
	return r
}

// Union returns the smallest range covering both r and o.
func (r Range) Union(o Range) Range {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	out := r
	if bytes.Compare(o.Lo, out.Lo) < 0 {
		out.Lo = o.Lo
	}
	if bytes.Compare(o.Hi, out.Hi) > 0 {
		out.Hi = o.Hi
	}
	return out
}

// Equal reports whether r and o are the same interval: both empty, or
// neither empty with the same bounds (a nil bound equals an empty one,
// as String prints them).
func (r Range) Equal(o Range) bool {
	if r.Empty() || o.Empty() {
		return r.Empty() && o.Empty()
	}
	return bytes.Equal(r.Lo, o.Lo) && bytes.Equal(r.Hi, o.Hi)
}

func (r Range) String() string {
	if r.Empty() {
		return "{}"
	}
	return fmt.Sprintf("{%q,%q}", r.Lo, r.Hi)
}
