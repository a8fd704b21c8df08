package iamdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"iamdb/internal/vfs"
)

// fileNode is one file as trackFS sees it: the name it has now, or
// removed once no name refers to it.
type fileNode struct {
	name    string
	removed bool
}

// trackFS follows every handle opened through it to the file it names,
// across Rename (MANIFEST.tmp becomes MANIFEST while still open) and
// across Remove, Create and Rename over a name, which unlink a file
// while its handles stay open.
type trackFS struct {
	vfs.FS
	mu    sync.Mutex
	nodes map[string]*fileNode
	open  map[*trackedFile]bool
}

type trackedFile struct {
	vfs.File
	fs   *trackFS
	node *fileNode
}

func newTrackFS(inner vfs.FS) *trackFS {
	return &trackFS{FS: inner, nodes: map[string]*fileNode{}, open: map[*trackedFile]bool{}}
}

// unlinkLocked marks the file named name, if any, as removed.  Caller
// holds fs.mu.
func (fs *trackFS) unlinkLocked(name string) {
	if n := fs.nodes[name]; n != nil {
		n.removed = true
		delete(fs.nodes, name)
	}
}

func (fs *trackFS) track(name string, f vfs.File, create bool) vfs.File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := fs.nodes[name]
	if create || n == nil {
		fs.unlinkLocked(name)
		n = &fileNode{name: name}
		fs.nodes[name] = n
	}
	t := &trackedFile{File: f, fs: fs, node: n}
	fs.open[t] = true
	return t
}

func (fs *trackFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return fs.track(name, f, true), nil
}

func (fs *trackFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return fs.track(name, f, false), nil
}

func (fs *trackFS) Remove(name string) error {
	if err := fs.FS.Remove(name); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.unlinkLocked(name)
	return nil
}

func (fs *trackFS) Rename(oldname, newname string) error {
	if err := fs.FS.Rename(oldname, newname); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := fs.nodes[oldname]
	if n == fs.nodes[newname] {
		return nil
	}
	fs.unlinkLocked(newname)
	delete(fs.nodes, oldname)
	if n != nil {
		n.name = newname
		fs.nodes[newname] = n
	}
	return nil
}

func (f *trackedFile) Close() error {
	f.fs.mu.Lock()
	delete(f.fs.open, f)
	f.fs.mu.Unlock()
	return f.File.Close()
}

// openHandles lists the files with a handle open, removed ones only
// when removedOnly is set, as sorted names.
func (fs *trackFS) openHandles(removedOnly bool) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for t := range fs.open {
		if !removedOnly || t.node.removed {
			names = append(names, fmt.Sprintf("%s (removed %v)", t.node.name, t.node.removed))
		}
	}
	sort.Strings(names)
	return names
}

// settle polls list until it comes back empty: background workers may
// be between removing a file and closing its last handle.  It fails
// when a handle is still open after the deadline.
func settle(t *testing.T, what string, list func() []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := list()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d handles open: %s", what, len(left), strings.Join(left, ", "))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreLeavesNoHandleOpen checks that the store closes every file
// handle it opens: once a round of puts, a full scan, Flush and
// CompactAll is done, no handle is open on a removed file, and after
// Close none is open at all.  On MemFS a leaked handle keeps its file's
// pages out of the free list; on OSFS it leaks a descriptor.  It runs on
// every engine, inline and with values separated, on one and two
// shards, with background workers and inline.
func TestStoreLeavesNoHandleOpen(t *testing.T) {
	for _, e := range allEngines {
		for _, threshold := range []int{0, 64} {
			for _, shards := range []int{1, 2} {
				for _, inline := range []bool{true, false} {
					name := fmt.Sprintf("%s/threshold=%d/shards=%d/inline=%v", e, threshold, shards, inline)
					t.Run(name, func(t *testing.T) {
						fs := newTrackFS(vfs.NewMemFS())
						opts := smallOpts(e, fs)
						opts.ValueThreshold = threshold
						opts.Shards = shards
						opts.InlineBackground = inline
						for reopen := 0; reopen < 2; reopen++ {
							db, err := Open("db", opts)
							if err != nil {
								t.Fatal(err)
							}
							handleRound(t, db, reopen)
							settle(t, fmt.Sprintf("open %d, after the round", reopen), func() []string { return fs.openHandles(true) })
							if err := db.Close(); err != nil {
								t.Fatal(err)
							}
							settle(t, fmt.Sprintf("open %d, after Close", reopen), func() []string { return fs.openHandles(false) })
						}
					})
				}
			}
		}
	}
}

// handleRound overwrites a key space a few times, so flushes and merges
// drop tables and the value log has garbage, scans all of it, and
// flushes and compacts.
func handleRound(t *testing.T, db *DB, round int) {
	t.Helper()
	val := make([]byte, 100)
	for i := 0; i < 1500; i++ {
		key := callerKey(0, i%500)
		val[0] = byte(i + round)
		if err := db.Put([]byte(key), val); err != nil {
			t.Fatal(err)
		}
	}
	it := db.NewIterator()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("scan yields %d keys, want 500", n)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
}
