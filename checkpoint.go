package iamdb

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
)

// Checkpoint writes a consistent, openable copy of the database to
// dstDir (which must not already contain a database).  The checkpoint
// captures everything durable: all table files, the manifest, and the
// write-ahead logs, so records still in the memtables are carried by
// the copied WAL and recovered when the checkpoint is opened.
//
// It is safe on a live DB: each store is copied with its commit path
// held from before the flush until its manifest is in place, so readers
// stay online, writers to that store wait for the copy, and the copy is
// one consistent cut of the store.  Stores are cut one after another, so
// a cross-store batch in flight may land in some copies and not others.
//
// Commit protocol: tables and logs are copied (each synced) first, the
// manifest last — built under a temporary name and renamed into place.
// Opening a directory requires its MANIFEST, so a checkpoint that
// failed or crashed partway can never be mistaken for a valid
// database: the destination either has no manifest at all, or a fully
// synced one whose referenced files were already durable when it
// appeared.
// A sharded DB checkpoints shard by shard into shard-NNN
// subdirectories and writes the SHARDS routing marker last, as the
// commit point: a destination missing the marker is detected as torn
// at open instead of being adopted as a database.
func (db *DB) Checkpoint(dstDir string) error {
	if db.closedA.Load() {
		return ErrClosed
	}
	// Each store refuses a directory that already holds a database; when
	// the stores go into subdirectories the target itself is checked too.
	n := len(db.stores)
	if n > 1 && holdsDatabase(db.fs, dstDir) {
		return fmt.Errorf("iamdb: checkpoint target %s already holds a database", dstDir)
	}
	for i, st := range db.stores {
		if err := st.checkpoint(storeDir(dstDir, n, i)); err != nil {
			return err
		}
	}
	if n == 1 {
		return nil
	}
	return writeShardsFile(db.fs, dstDir, db.part)
}

// holdsDatabase reports whether dir carries either file Open would
// adopt a database by: the routing marker or a store's manifest.
func holdsDatabase(fs vfs.FS, dir string) bool {
	return fs.Exists(dir+"/"+shardsFileName) || fs.Exists(dir+"/MANIFEST")
}

// checkpoint copies this store into dstDir.
func (st *store) checkpoint(dstDir string) error {
	// Nothing may add or delete a file between the listing and the last
	// copy.  With commits held, both memtables flushed and the engine
	// settled, no worker has work left: the engine state plus the (now
	// empty) live WAL describe the whole store, and the directory stands
	// still.  (The value log changes only under commitMu too: the commit
	// leader is its one writer, the collector's rewrites included, and
	// collected segments are removed with commitMu held.)
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	if err := st.flushLocked(); err != nil {
		return err
	}
	if err := st.eng.Settle(); err != nil {
		return err
	}
	if err := st.fs.MkdirAll(dstDir); err != nil {
		return err
	}
	if holdsDatabase(st.fs, dstDir) {
		return fmt.Errorf("iamdb: checkpoint target %s already holds a database", dstDir)
	}

	names, err := st.fs.List(st.dir)
	if err != nil {
		return err
	}
	if !slices.Contains(names, "MANIFEST") {
		return fmt.Errorf("iamdb: checkpoint source %s has no manifest", st.dir)
	}
	// Data before metadata: every file the manifest will reference must
	// be durable before the manifest exists at the destination.  Value-log
	// segments are data the copied tree's pointer records reference.
	for _, name := range names {
		if !strings.HasSuffix(name, ".mst") && !strings.HasSuffix(name, vlog.SegmentSuffix) {
			continue
		}
		if err := copyFile(st.fs, st.dir+"/"+name, dstDir+"/"+name); err != nil {
			return fmt.Errorf("iamdb: checkpoint %s: %w", name, err)
		}
	}
	for _, num := range logNums(names) {
		if err := copyFile(st.fs, logName(st.dir, num), logName(dstDir, num)); err != nil {
			return fmt.Errorf("iamdb: checkpoint %s: %w", logName(st.dir, num), err)
		}
	}
	tmp := dstDir + "/MANIFEST.ckpt"
	if err := copyFile(st.fs, st.dir+"/MANIFEST", tmp); err != nil {
		_ = st.fs.Remove(tmp)
		return fmt.Errorf("iamdb: checkpoint MANIFEST: %w", err)
	}
	if err := st.fs.Rename(tmp, dstDir+"/MANIFEST"); err != nil {
		_ = st.fs.Remove(tmp)
		return fmt.Errorf("iamdb: checkpoint MANIFEST: %w", err)
	}
	return nil
}

func copyFile(fs vfs.FS, src, dst string) error {
	in, err := fs.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	size, err := in.Size()
	if err != nil {
		return err
	}
	out, err := fs.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
	buf := make([]byte, 1<<20)
	var off int64
	for off < size {
		n, err := in.ReadAt(buf, off)
		if n > 0 {
			if _, werr := out.WriteAt(buf[:n], off); werr != nil {
				return werr
			}
			off += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return out.Sync()
}
