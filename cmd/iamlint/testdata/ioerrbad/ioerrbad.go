// Package ioerrbad silently discards storage-layer errors; every
// statement-level discard below must be flagged by the ioerr pass.
package ioerrbad

import "iamdb/internal/vfs"

func dropRemove(fs vfs.FS, name string) {
	fs.Remove(name) // want [ioerr] error result of vfs.Remove is discarded
}

func dropClose(f vfs.File) {
	f.Close() // want [ioerr] error result of vfs.File.Close is discarded
}

func dropSync(f vfs.File) {
	f.Sync() // want [ioerr] error result of vfs.Sync is discarded
}

func dropCorruptByte(fs vfs.FS, name string) {
	vfs.CorruptByte(fs, name, 0, vfs.RotFlip) // want [ioerr] error result of vfs.CorruptByte is discarded
}

func handled(fs vfs.FS, name string) error {
	return fs.Remove(name)
}
