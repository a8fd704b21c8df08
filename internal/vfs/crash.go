package vfs

import (
	"errors"
	"io"
	"sync"
)

// ErrCrashed is returned by every operation on a CrashFS after Crash()
// has fired, until Recover() is called.  Handles that were open at the
// moment of the crash stay dead even after recovery — a process that
// lost power does not keep its file descriptors.
var ErrCrashed = errors.New("vfs: simulated crash")

// CrashMode selects what happens to the single in-flight write at the
// moment of a crash.  Everything unsynced is always discarded; the
// modes differ in how the *last* buffered write is treated, modeling
// what a real disk can do to the sector stream it was given.
type CrashMode int

const (
	// CrashDrop discards every unsynced write cleanly.
	CrashDrop CrashMode = iota
	// CrashTorn persists the last unsynced write truncated to a
	// 512-byte sector prefix (possibly nothing), modeling a torn
	// multi-sector write.
	CrashTorn
	// CrashFlip persists the last unsynced write in full but with one
	// bit flipped, modeling a corrupted in-flight sector.
	CrashFlip
)

// CrashFS wraps an FS and buffers every write in memory until the file
// is Synced; only synced data reaches the inner FS.  Crash() throws the
// buffers away, leaving exactly the state a machine would find after
// power loss under a sync-barrier contract.  A deterministic counter
// over mutating operations (Create, Write, WriteAt, Sync, Remove,
// Rename) lets a test enumerate crash points: CrashAt(n) makes
// the n-th mutating op from now fail with ErrCrashed before taking
// effect, crashing the filesystem.
//
// Simplifications, documented and deliberate: metadata operations
// (Create, Remove, Rename, MkdirAll) are durable immediately, as on a
// journaled filesystem; only file *data* needs Sync.  Reads see the
// union of durable and buffered data, as the page cache would serve.
type CrashFS struct {
	FS

	mu         sync.Mutex
	mode       CrashMode
	files      map[string]*crashFile
	ops        int64
	crashAt    int64 // fire when the op counter reaches this; -1 = disarmed
	crashed    bool
	syncPoints []int64
	// lastWrite is the file holding the most recent buffered write op;
	// under CrashTorn/CrashFlip that op partially survives the crash.
	lastWrite *crashFile
}

// NewCrashFS wraps inner with an empty write buffer and no crash armed.
func NewCrashFS(inner FS, mode CrashMode) *CrashFS {
	return &CrashFS{
		FS:      inner,
		mode:    mode,
		files:   make(map[string]*crashFile),
		crashAt: -1,
	}
}

// pendingOp is one buffered write of data at off.
type pendingOp struct {
	off  int64
	data []byte
}

// crashFile is the per-path state shared by every handle open on that
// path.  Handles hold the pointer, so Rename keeps them attached to the
// same file identity (the manifest-compaction pattern: create tmp,
// rename over, keep appending through the original handle).
type crashFile struct {
	name    string
	inner   File
	pending []pendingOp
	size    int64 // volatile size: durable size + buffered effects
	dead    bool  // handle was open across a crash
}

// step advances the mutating-op counter and fires the armed crash when
// its index comes up.  Caller holds fs.mu.  The op with index n fails
// *before* taking effect.
func (fs *CrashFS) step(isSync bool) error {
	if fs.crashed {
		return ErrCrashed
	}
	idx := fs.ops
	fs.ops++
	if isSync {
		fs.syncPoints = append(fs.syncPoints, idx)
	}
	if fs.crashAt >= 0 && idx >= fs.crashAt {
		fs.crashLocked()
		return ErrCrashed
	}
	return nil
}

// crashLocked discards all buffered writes, optionally tearing or
// corrupting the last one into the durable image.  Caller holds fs.mu.
func (fs *CrashFS) crashLocked() {
	if fs.crashed {
		return
	}
	if fs.mode != CrashDrop && fs.lastWrite != nil {
		cf := fs.lastWrite
		for i := len(cf.pending) - 1; i >= 0; i-- {
			op := cf.pending[i]
			if len(op.data) == 0 {
				continue
			}
			switch fs.mode {
			case CrashTorn:
				// Persist a sector-aligned prefix; small writes are
				// simply lost.
				if cut := (len(op.data) / 2) &^ 511; cut > 0 {
					_, _ = cf.inner.WriteAt(op.data[:cut], op.off)
				}
			case CrashFlip:
				b := append([]byte(nil), op.data...)
				b[len(b)/2] ^= 1
				_, _ = cf.inner.WriteAt(b, op.off)
			}
			break
		}
	}
	for _, cf := range fs.files {
		cf.pending = nil
		cf.dead = true
	}
	fs.files = make(map[string]*crashFile)
	fs.crashed = true
	fs.crashAt = -1
	fs.lastWrite = nil
}

// Crash simulates power loss now: all unsynced data is gone and every
// subsequent operation fails with ErrCrashed until Recover.
func (fs *CrashFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashLocked()
}

// CrashAt arms a crash at mutating-op index n (as counted by OpCount).
// n < 0 disarms.
func (fs *CrashFS) CrashAt(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashAt = n
}

// Recover re-enables the filesystem after a crash, exposing only the
// durable image.  Handles from before the crash stay dead.
func (fs *CrashFS) Recover() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = false
}

// Crashed reports whether the filesystem is in the post-crash state.
func (fs *CrashFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// OpCount returns how many mutating operations have been counted.
func (fs *CrashFS) OpCount() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// SyncPoints returns the op indices at which Sync was called, the
// natural crash points for a sweep (every one is a commit boundary).
func (fs *CrashFS) SyncPoints() []int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]int64(nil), fs.syncPoints...)
}

// Create implements FS.  The file springs into existence durably (a
// journaled create), but data written to it is buffered until Sync.
func (fs *CrashFS) Create(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(false); err != nil {
		return nil, err
	}
	inner, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{name: name, inner: inner}
	if old := fs.files[name]; old != nil && fs.lastWrite == old {
		fs.lastWrite = nil
	}
	fs.files[name] = cf
	return &crashHandle{fs: fs, cf: cf}, nil
}

// Open implements FS.
func (fs *CrashFS) Open(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	cf := fs.files[name]
	if cf == nil {
		inner, err := fs.FS.Open(name)
		if err != nil {
			return nil, err
		}
		size, err := inner.Size()
		if err != nil {
			return nil, err
		}
		cf = &crashFile{name: name, inner: inner, size: size}
		fs.files[name] = cf
	}
	return &crashHandle{fs: fs, cf: cf, pos: -1}, nil
}

// Remove implements FS.  Removal is durable immediately; any buffered
// writes to the file die with it.
func (fs *CrashFS) Remove(name string) error {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(false); err != nil {
		return err
	}
	if cf := fs.files[name]; cf != nil {
		if fs.lastWrite == cf {
			fs.lastWrite = nil
		}
		delete(fs.files, name)
	}
	return fs.FS.Remove(name)
}

// Rename implements FS.  Durable immediately; open handles follow the
// file to its new name.
func (fs *CrashFS) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(false); err != nil {
		return err
	}
	if err := fs.FS.Rename(oldname, newname); err != nil {
		return err
	}
	if cf := fs.files[oldname]; cf != nil {
		if repl := fs.files[newname]; repl != nil && fs.lastWrite == repl {
			fs.lastWrite = nil
		}
		delete(fs.files, oldname)
		cf.name = newname
		fs.files[newname] = cf
	} else {
		delete(fs.files, newname)
	}
	return nil
}

// MkdirAll implements FS.
func (fs *CrashFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	return fs.FS.MkdirAll(dir)
}

type crashHandle struct {
	fs *CrashFS
	cf *crashFile
	// pos is the sequential-write position; -1 means "end of file",
	// matching memHandle.
	pos int64
}

// readAtLocked serves reads from the durable image overlaid with the
// buffered ops in order, with memHandle-compatible EOF semantics.
// Caller holds fs.mu.
func (cf *crashFile) readAtLocked(p []byte, off int64) (int, error) {
	if off >= cf.size {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > cf.size-off {
		n = int(cf.size - off)
	}
	buf := p[:n]
	for i := range buf {
		buf[i] = 0
	}
	// Durable base; short reads and EOF just leave zeros.
	_, _ = cf.inner.ReadAt(buf, off)
	for _, op := range cf.pending {
		lo, hi := op.off, op.off+int64(len(op.data))
		if lo < off {
			lo = off
		}
		if hi > off+int64(n) {
			hi = off + int64(n)
		}
		if lo < hi {
			copy(buf[lo-off:hi-off], op.data[lo-op.off:hi-op.off])
		}
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *crashHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed || h.cf.dead {
		return 0, ErrCrashed
	}
	return h.cf.readAtLocked(p, off)
}

// writeAtLocked buffers one write.  Caller holds fs.mu and has already
// charged the op counter.
func (h *crashHandle) writeAtLocked(p []byte, off int64) {
	cf := h.cf
	cf.pending = append(cf.pending, pendingOp{off: off, data: append([]byte(nil), p...)})
	if end := off + int64(len(p)); end > cf.size {
		cf.size = end
	}
	h.fs.lastWrite = cf
}

func (h *crashHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.cf.dead {
		return 0, ErrCrashed
	}
	if err := h.fs.step(false); err != nil {
		return 0, err
	}
	h.writeAtLocked(p, off)
	return len(p), nil
}

func (h *crashHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.cf.dead {
		return 0, ErrCrashed
	}
	if err := h.fs.step(false); err != nil {
		return 0, err
	}
	if h.pos < 0 {
		h.pos = h.cf.size
	}
	h.writeAtLocked(p, h.pos)
	h.pos += int64(len(p))
	return len(p), nil
}

// Sync makes this file's buffered writes durable, in order, then syncs
// the inner file.
func (h *crashHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.cf.dead {
		return ErrCrashed
	}
	if err := h.fs.step(true); err != nil {
		return err
	}
	cf := h.cf
	for _, op := range cf.pending {
		if _, err := cf.inner.WriteAt(op.data, op.off); err != nil {
			return err
		}
	}
	cf.pending = cf.pending[:0]
	if h.fs.lastWrite == cf {
		h.fs.lastWrite = nil
	}
	return cf.inner.Sync()
}

// Close leaves the shared file state alone: other handles (and a later
// Open) may still be using it, and unsynced data must stay unsynced.
func (h *crashHandle) Close() error { return nil }

func (h *crashHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed || h.cf.dead {
		return 0, ErrCrashed
	}
	return h.cf.size, nil
}
