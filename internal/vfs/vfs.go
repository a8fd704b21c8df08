// Package vfs abstracts the filesystem under IamDB and provides the
// experiment substrate that replaces the paper's physical disks:
//
//   - MemFS: a concurrency-safe in-memory filesystem for tests and
//     simulated experiments.
//   - OSFS: a thin wrapper over the operating system.
//   - Stats: a wrapper counting bytes/ops/seeks, used to measure write,
//     read and space amplification exactly as the paper defines them.
//   - Disk: a virtual-clock disk model charging seek latency and
//     transfer time per I/O, with HDD and SSD profiles, so throughput
//     *shape* (who wins, by what factor) is reproducible on any machine.
//
// Each wrapper (Stats, Disk, Fault, Crash) embeds the FS it wraps, and
// its files the File, and declares only the methods whose behaviour it
// changes; the rest reach the layer below unchanged.  Stats' Seeks and
// Disk's seek charges read one model (seekMarks), so the counter and the
// clock see the same seeks.
//
// The wrappers stack (Stats over Crash over Mem, etc.), so vfs-level
// locks nest within the package in wrapper order; the type-granular
// lockorder analysis cannot distinguish instances, so the package is
// declared internally ordered:
//
//iamlint:lockorder vfs.* internal
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNotFound is returned when a named file does not exist.
var ErrNotFound = errors.New("vfs: file not found")

// File is an open file handle.  Handles support both sequential appends
// (WAL) and random positioned I/O (tables).
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer // sequential append at the current end
	io.Closer
	// Sync flushes buffered data to stable storage.
	Sync() error
	// Size reports the current file length.
	Size() (int64, error)
}

// FS is the filesystem interface every engine runs against.
type FS interface {
	// Create makes (or truncates) a file and opens it read-write.
	Create(name string) (File, error)
	// Open opens an existing file read-write.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file, replacing any destination.
	Rename(oldname, newname string) error
	// List returns the sorted base names of files under dir.
	List(dir string) ([]string, error)
	// MkdirAll creates a directory path.
	MkdirAll(dir string) error
	// Exists reports whether the named file exists.
	Exists(name string) bool
}

// ---------------------------------------------------------------------
// In-memory filesystem

// memPageSize is the extent granularity of in-memory files.  MSTables
// are sparse — data grows from the front, metadata from the back, with
// a hole between (see internal/table) — so memFile stores pages in a
// map and never materializes the hole.
const memPageSize = 16 * 1024

type memPage = [memPageSize]byte

type memFile struct {
	fs    *MemFS
	mu    sync.RWMutex
	size  int64
	pages map[int64]*memPage
	// handles counts the open handles; unlinked is set once no name
	// refers to the file.  When both say the file is unreachable its
	// pages go to fs's free list.
	handles  int
	unlinked bool
}

// readAtLocked copies [off, off+len(p)) into p, zero-filling holes.
// Caller holds mu (read or write).
func (f *memFile) readAtLocked(p []byte, off int64) (int, error) {
	if off >= f.size {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > f.size-off {
		n = int(f.size - off)
	}
	done := 0
	for done < n {
		pageIdx := (off + int64(done)) / memPageSize
		pageOff := int((off + int64(done)) % memPageSize)
		chunk := memPageSize - pageOff
		if chunk > n-done {
			chunk = n - done
		}
		if pg := f.pages[pageIdx]; pg != nil {
			copy(p[done:done+chunk], pg[pageOff:pageOff+chunk])
		} else {
			clear(p[done : done+chunk])
		}
		done += chunk
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// writeAtLocked stores p at off, taking pages from the free list as
// needed.  A page from the list still holds an earlier file's bytes, so
// the write zeroes what it exposes and does not cover: the gap between
// the old size and off, and a taken page's bytes outside the write that
// lie below the new size.  Bytes past the size stay unzeroed until a
// write or Truncate exposes them.  Caller holds mu for writing.
func (f *memFile) writeAtLocked(p []byte, off int64) {
	end := off + int64(len(p))
	f.growLocked(off)
	size := max(f.size, end)
	done := 0
	for done < len(p) {
		pageIdx := (off + int64(done)) / memPageSize
		pageOff := int((off + int64(done)) % memPageSize)
		chunk := memPageSize - pageOff
		if chunk > len(p)-done {
			chunk = len(p) - done
		}
		pg := f.pages[pageIdx]
		if pg == nil {
			pg = f.fs.takePage()
			f.pages[pageIdx] = pg
			clear(pg[:pageOff])
			if below := min(size-pageIdx*memPageSize, memPageSize); below > int64(pageOff+chunk) {
				clear(pg[pageOff+chunk : below])
			}
		}
		copy(pg[pageOff:pageOff+chunk], p[done:done+chunk])
		done += chunk
	}
	f.size = size
}

// growLocked extends the file to n bytes (when n is past its size),
// zeroing what the growth exposes.  Only the page holding the old end
// can hold bytes past it — pages wholly past the end are never kept —
// so that page's tail up to n is the only thing to clear; holes read as
// zeros.  Caller holds mu for writing.
func (f *memFile) growLocked(n int64) {
	if n <= f.size {
		return
	}
	idx := f.size / memPageSize
	if pg := f.pages[idx]; pg != nil {
		clear(pg[f.size%memPageSize : min(n-idx*memPageSize, memPageSize)])
	}
	f.size = n
}

// releaseIfUnreachableLocked hands every page to the free list once the
// file is unlinked and its last handle closed.  Caller holds mu for
// writing.
func (f *memFile) releaseIfUnreachableLocked() {
	if !f.unlinked || f.handles > 0 {
		return
	}
	f.fs.freePages(f.pages, 0)
}

// unlink marks f as named by nothing.  Caller holds the MemFS's mu for
// writing.
func (f *memFile) unlink() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.unlinked = true
	f.releaseIfUnreachableLocked()
}

// MemFS is an in-memory FS safe for concurrent use.
//
// It keeps POSIX unlink semantics: Remove, or a Create or Rename over a
// file's name, unlinks the file, and every handle already open on it
// still reads and writes all of its bytes.  An unlinked file's pages go
// to the filesystem's free list once its last handle has closed (Create
// and Open each add a handle, Close removes it once), and Truncate (a
// MemFS method, not a File one: tests use it to fake a torn write) hands
// over the pages it cuts off; writes take pages from the list before
// they allocate.  A listed page is not cleared: a write zeroes only the
// bytes it exposes (the gap past the old size, and the unwritten bytes
// of a taken page below the new size), so a file never reads another
// file's bytes.  A handle never closed keeps its file's pages for good.
// The list never holds more than this filesystem's own peak.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memFile
	dirs  map[string]bool

	freeMu sync.Mutex
	free   []*memPage
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: map[string]bool{".": true, "/": true}}
}

func clean(name string) string { return filepath.Clean(name) }

// takePage returns a page from the free list, as its last file left it,
// or a new zeroed one when the list is empty.  The caller zeroes what it
// exposes and does not write (memFile.writeAtLocked).
func (fs *MemFS) takePage() *memPage {
	fs.freeMu.Lock()
	defer fs.freeMu.Unlock()
	n := len(fs.free)
	if n == 0 {
		return new(memPage)
	}
	pg := fs.free[n-1]
	fs.free = fs.free[:n-1]
	return pg
}

// freePages moves every page of pages at index from or above to the free
// list.
func (fs *MemFS) freePages(pages map[int64]*memPage, from int64) {
	fs.freeMu.Lock()
	defer fs.freeMu.Unlock()
	for idx, pg := range pages {
		if idx >= from {
			fs.free = append(fs.free, pg)
			delete(pages, idx)
		}
	}
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old, ok := fs.files[name]; ok {
		old.unlink()
	}
	f := &memFile{fs: fs, pages: make(map[int64]*memPage), handles: 1}
	fs.files[name] = f
	return &memHandle{f: f}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	name = clean(name)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: ErrNotFound}
	}
	f.mu.Lock()
	f.handles++
	f.mu.Unlock()
	return &memHandle{f: f, pos: -1}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	name = clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return &os.PathError{Op: "remove", Path: name, Err: ErrNotFound}
	}
	delete(fs.files, name)
	f.unlink()
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: ErrNotFound}
	}
	if old, ok := fs.files[newname]; ok && old != f {
		old.unlink()
	}
	fs.files[newname] = f
	delete(fs.files, oldname)
	return nil
}

// List implements FS.
func (fs *MemFS) List(dir string) ([]string, error) {
	dir = clean(dir)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var names []string
	prefix := dir + string(filepath.Separator)
	if dir == "." || dir == "/" {
		prefix = ""
	}
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			rest := strings.TrimPrefix(name, prefix)
			if !strings.Contains(rest, string(filepath.Separator)) {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (fs *MemFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dirs[clean(dir)] = true
	return nil
}

// Exists implements FS.
func (fs *MemFS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[clean(name)]
	return ok
}

// Truncate resizes the named file to n bytes in place, as a torn write
// leaves a file: every handle already open on it sees the new size.
// Pages wholly past a cut go to the free list; the rest of the last page
// is zeroed when a write or a growing Truncate exposes it, so regrowth
// reads zeros.  It is not part of FS: tests call it to fake damage
// under a store that holds the file open.
func (fs *MemFS) Truncate(name string, n int64) error {
	name = clean(name)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: ErrNotFound}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < f.size {
		fs.freePages(f.pages, (n+memPageSize-1)/memPageSize)
		f.size = n
	}
	f.growLocked(n)
	return nil
}

// AllocatedBytes reports the bytes actually materialized (holes are
// free), mirroring what a hole-punching filesystem would charge.  It
// counts the pages of named files only: neither an unlinked file still
// open nor the free list is counted.
func (fs *MemFS) AllocatedBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for _, f := range fs.files {
		f.mu.RLock()
		n += int64(len(f.pages)) * memPageSize
		f.mu.RUnlock()
	}
	return n
}

// errHandleClosed is what a closed MemFS handle answers to every call
// but Close, as an os.File answers os.ErrClosed.
var errHandleClosed = fmt.Errorf("vfs: use of closed MemFS handle: %w", os.ErrClosed)

// memHandle is one open handle on a memFile.  Every call but Close fails
// once the handle is closed.  The calls that touch the file check closed
// under a lock Close takes after setting it (Write under mu, the rest
// under the file's), so none reads or writes pages the file gave up.
type memHandle struct {
	f      *memFile
	mu     sync.Mutex
	pos    int64 // sequential-write position; -1 means "end of file"
	closed atomic.Bool
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	if h.closed.Load() {
		return 0, errHandleClosed
	}
	return h.f.readAtLocked(p, off)
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.closed.Load() {
		return 0, errHandleClosed
	}
	h.f.writeAtLocked(p, off)
	return len(p), nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		return 0, errHandleClosed
	}
	h.f.mu.Lock()
	if h.pos < 0 {
		h.pos = h.f.size
	}
	h.f.writeAtLocked(p, h.pos)
	h.f.mu.Unlock()
	h.pos += int64(len(p))
	return len(p), nil
}

// Close gives up the handle's hold on the file; a second Close does
// nothing.
func (h *memHandle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Swap(true) {
		return nil
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.handles--
	h.f.releaseIfUnreachableLocked()
	return nil
}

func (h *memHandle) Sync() error {
	if h.closed.Load() {
		return errHandleClosed
	}
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	if h.closed.Load() {
		return 0, errHandleClosed
	}
	return h.f.size, nil
}

// ---------------------------------------------------------------------
// OS filesystem
