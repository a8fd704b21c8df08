package iamdb

import (
	"fmt"
	"io"

	"iamdb/internal/corrupt"
	"iamdb/internal/shard"
	"iamdb/internal/vfs"
)

// The directory layout of a database: which directory each store lives
// in, and the SHARDS marker that records how keys are routed to them.
// With Options.Shards > 1 the DB routes the public API across N fully
// independent stores, each owning a disjoint key range with its own WAL,
// memtable, engine and commit pipeline.  Writers on different stores
// never contend on a commit lock, so partitioning multiplies group-commit
// throughput under sync latency — the "multiple independent trees"
// scaling the paper's single-pipeline design leaves on the table.  See
// DESIGN.md "Commit pipeline" for how one sequencer keeps cross-store
// batches atomic.

// shardsFileName is the root marker of a partitioned database
// directory: a CRC-guarded record of the shard count and split keys
// (see shard.Partition.Encode).  Reopening adopts the recorded layout;
// damage surfaces as a typed corruption error at Open.  An unsharded
// database has no marker.
const shardsFileName = "SHARDS"

// shardDirName is shard i's subdirectory under the database root.
func shardDirName(dir string, i int) string {
	return fmt.Sprintf("%s/shard-%03d", dir, i)
}

// storeDir is where store i of n lives: the database directory itself
// for an unsharded database, shard-NNN under it otherwise.  This is the
// whole on-disk difference between the two.
func storeDir(dir string, n, i int) string {
	if n == 1 {
		return dir
	}
	return shardDirName(dir, i)
}

// loadOrInitPartition resolves the shard layout: adopt the recorded
// SHARDS marker (rejecting a conflicting explicit layout), or record
// the requested one when the directory is fresh.  With no marker and
// shards <= 1 the layout is the single unbounded range (the zero
// Partition) and nothing is recorded.  Shard data without a readable
// marker is corruption — routing would be guesswork.
func loadOrInitPartition(fs vfs.FS, dir string, shards int, splits [][]byte) (shard.Partition, error) {
	path := dir + "/" + shardsFileName
	if fs.Exists(path) {
		data, err := readWholeFile(fs, path)
		if err != nil {
			return shard.Partition{}, err
		}
		part, err := shard.DecodePartition(data)
		if err != nil {
			return shard.Partition{}, corrupt.New(corrupt.LayerManifest, path, -1, err,
				"SHARDS marker unreadable")
		}
		if shards > 1 {
			want, err := shard.NewPartition(shards, splits)
			if err != nil {
				return shard.Partition{}, err
			}
			if !want.Equal(part) {
				return shard.Partition{}, fmt.Errorf(
					"iamdb: %s records %d shards with a different layout than the %d requested; "+
						"reopen without explicit shard options to adopt it", path, part.Count(), shards)
			}
		}
		return part, nil
	}
	if fs.Exists(shardDirName(dir, 0) + "/MANIFEST") {
		// Shard directories with no marker: a checkpoint that crashed
		// before its commit point, or a lost/deleted marker.  Refuse
		// rather than guess a routing over existing data (or silently
		// open an empty store next to it).
		return shard.Partition{}, corrupt.New(corrupt.LayerManifest, path, -1,
			shard.ErrBadShardsFile, "shard directories present but SHARDS marker missing")
	}
	if shards < 2 {
		return shard.Partition{}, nil
	}
	part, err := shard.NewPartition(shards, splits)
	if err != nil {
		return shard.Partition{}, err
	}
	if err := writeShardsFile(fs, dir, part); err != nil {
		return shard.Partition{}, err
	}
	return part, nil
}

// writeShardsFile durably records the partition: tmp + sync + rename,
// so the marker is either absent or complete.
func writeShardsFile(fs vfs.FS, dir string, part shard.Partition) error {
	path := dir + "/" + shardsFileName
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	enc := part.Encode()
	if _, err := f.WriteAt(enc, 0); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return nil
}

func readWholeFile(fs vfs.FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// NumShards reports how many independent shards back this DB; 1 for an
// unsharded database.
func (db *DB) NumShards() int { return len(db.stores) }

// ShardRange describes shard i's key range as [Lo, Hi); Lo is nil for
// the first shard and Hi nil for the last.  It panics if i is out of
// range.
func (db *DB) ShardRange(i int) (lo, hi []byte) {
	splits := db.part.Splits()
	if i > 0 {
		lo = splits[i-1]
	}
	if i < len(splits) {
		hi = splits[i]
	}
	return lo, hi
}
