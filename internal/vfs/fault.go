package vfs

import (
	"errors"
	"strings"
	"sync"
)

// ErrInjected is the error FaultFS raises when a scheduled fault fires.
var ErrInjected = errors.New("vfs: injected fault")

// ErrNoSpace is the error FaultFS raises once its disk-full budget is
// exhausted, standing in for the operating system's ENOSPC.
var ErrNoSpace = errors.New("vfs: no space left on device")

// FaultFS wraps an FS and fails operations on demand, for exercising
// the engines' error paths: write failures during compaction, torn
// syncs, failed opens.  Faults are armed by operation kind with a
// countdown — "fail the 3rd write from now" — and fire once unless
// sticky.  Faults can be scoped to paths containing a substring, and
// write faults can be "short": part of the buffer reaches the inner
// file before the error surfaces, like a disk that ran out of space
// mid-write.
type FaultFS struct {
	FS

	mu     sync.Mutex
	arm    map[FaultOp][]*fault
	hits   map[FaultOp]int
	sticky bool

	// Disk-full simulation: when armed, writes draw from a byte budget
	// and fail with ErrNoSpace once it runs dry, until FreeSpace.
	nospace       bool
	nospaceBudget int64
}

// FaultOp selects which operation class a fault applies to.
type FaultOp int

// Operation classes that can fail.
const (
	FaultWrite FaultOp = iota
	FaultRead
	FaultSync
	FaultCreate
	FaultRemove
	FaultClose
	FaultRename
)

type fault struct {
	after int    // fire when counter reaches zero
	path  string // substring the file path must contain; "" = any
}

// NewFaultFS wraps fs with no faults armed.
func NewFaultFS(fs FS) *FaultFS {
	return &FaultFS{FS: fs, arm: make(map[FaultOp][]*fault), hits: make(map[FaultOp]int)}
}

// FailAfter arms op to fail after n more operations (n=0 fails the
// next one).  Re-arming replaces the previous schedule for op.
func (f *FaultFS) FailAfter(op FaultOp, n int) {
	f.mu.Lock()
	f.arm[op] = []*fault{{after: n}}
	f.mu.Unlock()
}

// FailAfterPath arms op to fail after n more operations whose file path
// contains substr.  Unlike FailAfter it adds to the schedule, so
// several path-scoped faults can be armed at once.
func (f *FaultFS) FailAfterPath(op FaultOp, substr string, n int) {
	f.mu.Lock()
	f.arm[op] = append(f.arm[op], &fault{after: n, path: substr})
	f.mu.Unlock()
}

// FailWithNoSpace simulates a filling disk: the next budget bytes of
// writes succeed, after which every write and create fails with
// ErrNoSpace until FreeSpace (or Clear).  A write straddling the budget
// boundary lands its allowed prefix in the inner file and reports a
// short write with ErrNoSpace, like a real device running dry
// mid-write.  budget 0 fails the very next write.
func (f *FaultFS) FailWithNoSpace(budget int64) {
	f.mu.Lock()
	f.nospace = true
	f.nospaceBudget = budget
	f.mu.Unlock()
}

// FreeSpace clears the disk-full condition: writes succeed again, as if
// space had been reclaimed.
func (f *FaultFS) FreeSpace() {
	f.mu.Lock()
	f.nospace = false
	f.mu.Unlock()
}

// chargeWrite draws n bytes from the disk-full budget.  It returns how
// many bytes are allowed through (all of them when no fault fires) and
// ErrNoSpace once the budget is dry.
func (f *FaultFS) chargeWrite(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.nospace {
		return n, nil
	}
	if f.nospaceBudget >= int64(n) && (n > 0 || f.nospaceBudget > 0) {
		f.nospaceBudget -= int64(n)
		return n, nil
	}
	allowed := int(f.nospaceBudget)
	f.nospaceBudget = 0
	return allowed, ErrNoSpace
}

// SetSticky makes fired faults keep failing instead of disarming.
func (f *FaultFS) SetSticky(on bool) {
	f.mu.Lock()
	f.sticky = on
	f.mu.Unlock()
}

// Clear disarms all faults, including a disk-full condition.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	f.arm = make(map[FaultOp][]*fault)
	f.nospace = false
	f.mu.Unlock()
}

// Hits reports how many times faults of class op have fired.
func (f *FaultFS) Hits(op FaultOp) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[op]
}

// check decides whether the next operation of class op on path fails.
// Only the first fault whose path scope matches is considered, so
// countdowns are not consumed by operations outside their scope.
func (f *FaultFS) check(op FaultOp, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, fa := range f.arm[op] {
		if fa.path != "" && !strings.Contains(path, fa.path) {
			continue
		}
		if fa.after > 0 {
			fa.after--
			return nil
		}
		f.hits[op]++
		if !f.sticky {
			f.arm[op] = append(f.arm[op][:i], f.arm[op][i+1:]...)
		}
		return ErrInjected
	}
	return nil
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if err := f.check(FaultCreate, name); err != nil {
		return nil, err
	}
	if _, err := f.chargeWrite(0); err != nil {
		return nil, err
	}
	return f.wrap(name, f.FS.Create)
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) { return f.wrap(name, f.FS.Open) }

func (f *FaultFS) wrap(name string, open func(string) (File, error)) (File, error) {
	file, err := open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.check(FaultRemove, name); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

// Rename implements FS.  A FaultRename fault matches when either the
// old or the new name contains the fault's path substring.
func (f *FaultFS) Rename(o, n string) error {
	if err := f.check(FaultRename, o+" -> "+n); err != nil {
		return err
	}
	return f.FS.Rename(o, n)
}

type faultFile struct {
	File
	fs   *FaultFS
	name string
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(FaultRead, f.name); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return f.write(p, func(b []byte) (int, error) { return f.File.WriteAt(b, off) })
}

func (f *faultFile) Write(p []byte) (int, error) { return f.write(p, f.File.Write) }

// write is the one path of Write and WriteAt: a write straddling the
// disk-full budget lands its allowed prefix through w and reports a
// short write; otherwise a scheduled write fault may fail it whole.
func (f *faultFile) write(p []byte, w func([]byte) (int, error)) (int, error) {
	if allowed, err := f.fs.chargeWrite(len(p)); err != nil {
		if allowed > 0 {
			if n, werr := w(p[:allowed]); werr != nil {
				return n, werr
			}
		}
		return allowed, err
	}
	if err := f.fs.check(FaultWrite, f.name); err != nil {
		return 0, err
	}
	return w(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.check(FaultSync, f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Close() error {
	if err := f.fs.check(FaultClose, f.name); err != nil {
		return err
	}
	return f.File.Close()
}
