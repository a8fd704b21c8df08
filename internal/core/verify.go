package core

import "iamdb/internal/tableset"

// DeepVerify checks the tree's invariants (CheckInvariants: structure
// plus level thresholds) and then everything the table set verifies by
// reading every data block: sequence order and bounds, Bloom filters,
// sampled lookups (see tableset.Set.DeepVerify).  For tests and tooling,
// not the hot path.
func (t *Tree) DeepVerify() (tableset.VerifyReport, error) {
	if err := t.CheckInvariants(); err != nil {
		return tableset.VerifyReport{}, err
	}
	return t.Set.DeepVerify()
}
