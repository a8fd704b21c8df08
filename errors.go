package iamdb

import (
	"errors"

	"iamdb/internal/corrupt"
	"iamdb/internal/tableset"
)

// ErrLayout is returned (wrapped) by Open when the directory's manifest
// places tables on a level Options.Engine cannot hold: an LSM baseline's
// directory with level-0 files opened as IAM or LSA, or a tree grown
// past the baselines' level count opened as LevelDB or RocksDB.  Open
// refuses before writing anything, so the engine that wrote the
// directory still reads all of it.
var ErrLayout = tableset.ErrLayout

// CorruptionError is the typed error every on-disk format layer
// returns when synced data fails verification: a CRC mismatch, a torn
// structure, or a reference to a missing file.  It carries provenance
// — which file, which byte offset, which format layer caught it — so
// callers and operators can tell *what* rotted, not just that
// something did.
//
// Reads that hit a corrupt block return a CorruptionError (never wrong
// data, never a panic); Open returns one when the manifest or a WAL is
// damaged mid-log (a torn tail from a crash is tolerated and
// truncated).  See DESIGN.md "Latent-fault model".
type CorruptionError = corrupt.Error

// Corruption layer names, as found in CorruptionError.Layer.
const (
	LayerBlock       = corrupt.LayerBlock
	LayerTableFooter = corrupt.LayerTableFooter
	LayerTableMeta   = corrupt.LayerTableMeta
	LayerTableBlock  = corrupt.LayerTableBlock
	LayerWAL         = corrupt.LayerWAL
	LayerManifest    = corrupt.LayerManifest
	LayerVLog        = corrupt.LayerVLog
)

// IsCorruption reports whether err is, or wraps, a CorruptionError.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// AsCorruption returns the CorruptionError in err's chain, or nil.
func AsCorruption(err error) *CorruptionError {
	var ce *CorruptionError
	if errors.As(err, &ce) {
		return ce
	}
	return nil
}
