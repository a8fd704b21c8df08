// The OS-backed filesystem lives in its own file: it is the single
// sanctioned boundary where the deterministic storage stack touches the
// real operating system, and the only vfs file exempt from iamlint's
// determinism pass.  Everything above it (Disk, Stats, MemFS, the
// engines) must stay replayable and go through the FS interface.
//
//iamlint:file-ignore determinism
package vfs

import (
	"os"
	"sort"
	"sync"
)

// OSFS adapts the operating-system filesystem to FS.
type OSFS struct{}

// NewOSFS returns the operating-system filesystem.
func NewOSFS() OSFS { return OSFS{} }

// osFile adapts *os.File.  Sequential Write appends at a tracked end
// position via WriteAt, because opening with O_APPEND would forbid the
// positioned writes tables and manifests rely on.
type osFile struct {
	*os.File
	mu  sync.Mutex
	end int64
}

func (f *osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (f *osFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.WriteAt(p, f.end)
	f.end += int64(n)
	return n, err
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{File: f}, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &os.PathError{Op: "open", Path: name, Err: ErrNotFound}
		}
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &osFile{File: f, end: st.Size()}, nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Exists implements FS.
func (OSFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}
