package vfs

import (
	"errors"
	"io"
	"testing"
)

func TestCrashFSDiscardsUnsynced(t *testing.T) {
	mem := NewMemFS()
	cfs := NewCrashFS(mem, CrashDrop)
	f, err := cfs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-lost")); err != nil {
		t.Fatal(err)
	}
	// Pre-crash reads see the buffered union.
	buf := make([]byte, 11)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "synced-lost" {
		t.Fatalf("pre-crash read %q", buf)
	}
	cfs.Crash()
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("dead handle read: %v", err)
	}
	if _, err := cfs.Open("x"); !errors.Is(err, ErrCrashed) {
		t.Fatal("open while crashed should fail")
	}
	cfs.Recover()
	g, err := cfs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.ReadAt(buf, 0)
	if err != io.EOF || n != 6 || string(buf[:n]) != "synced" {
		t.Fatalf("post-crash read n=%d err=%v %q", n, err, buf[:n])
	}
	// Old handle stays dead even after recovery.
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrCrashed) {
		t.Fatal("pre-crash handle must stay dead")
	}
}

func TestCrashFSCrashAtCountsOps(t *testing.T) {
	cfs := NewCrashFS(NewMemFS(), CrashDrop)
	f, _ := cfs.Create("x") // op 0
	if got := cfs.OpCount(); got != 1 {
		t.Fatalf("ops after create = %d", got)
	}
	cfs.CrashAt(2)                                  // the Sync below
	if _, err := f.Write([]byte("a")); err != nil { // op 1
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // op 2: crash
		t.Fatalf("sync should crash, got %v", err)
	}
	if !cfs.Crashed() {
		t.Fatal("should be crashed")
	}
	cfs.Recover()
	g, err := cfs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("unsynced write survived: size %d", sz)
	}
}

func TestCrashFSSyncPoints(t *testing.T) {
	cfs := NewCrashFS(NewMemFS(), CrashDrop)
	f, _ := cfs.Create("x")   // 0
	_, _ = f.Write([]byte{1}) // 1
	_ = f.Sync()              // 2
	_, _ = f.Write([]byte{2}) // 3
	_ = f.Sync()              // 4
	pts := cfs.SyncPoints()
	if len(pts) != 2 || pts[0] != 2 || pts[1] != 4 {
		t.Fatalf("sync points %v", pts)
	}
}

func TestCrashFSTornWrite(t *testing.T) {
	mem := NewMemFS()
	cfs := NewCrashFS(mem, CrashTorn)
	f, _ := cfs.Create("x")
	big := make([]byte, 4096)
	for i := range big {
		big[i] = 0xAB
	}
	if _, err := f.WriteAt(big, 0); err != nil {
		t.Fatal(err)
	}
	cfs.Crash()
	cfs.Recover()
	g, err := cfs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := g.Size()
	// Half of 4096, sector-aligned: 2048 bytes persisted.
	if sz != 2048 {
		t.Fatalf("torn size %d", sz)
	}
	buf := make([]byte, 2048)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0xAB {
			t.Fatalf("byte %d = %x", i, b)
		}
	}
}

func TestCrashFSTornSmallWriteVanishes(t *testing.T) {
	cfs := NewCrashFS(NewMemFS(), CrashTorn)
	f, _ := cfs.Create("x")
	if _, err := f.Write([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	cfs.Crash()
	cfs.Recover()
	g, _ := cfs.Open("x")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("sub-sector torn write should vanish, size %d", sz)
	}
}

func TestCrashFSFlipWrite(t *testing.T) {
	cfs := NewCrashFS(NewMemFS(), CrashFlip)
	f, _ := cfs.Create("x")
	data := make([]byte, 64)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	cfs.Crash()
	cfs.Recover()
	g, _ := cfs.Open("x")
	buf := make([]byte, 64)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, b := range buf {
		if b != 0 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("want exactly one corrupted byte, got %d", flipped)
	}
}

func TestCrashFSOnlyLastWriteTorn(t *testing.T) {
	// Two buffered writes: the first is dropped entirely, only the last
	// can tear.
	cfs := NewCrashFS(NewMemFS(), CrashTorn)
	f, _ := cfs.Create("x")
	first := make([]byte, 2048)
	for i := range first {
		first[i] = 1
	}
	last := make([]byte, 2048)
	for i := range last {
		last[i] = 2
	}
	_, _ = f.WriteAt(first, 0)
	_, _ = f.WriteAt(last, 4096)
	cfs.Crash()
	cfs.Recover()
	g, _ := cfs.Open("x")
	sz, _ := g.Size()
	if sz != 4096+1024 {
		t.Fatalf("size %d", sz)
	}
	buf := make([]byte, int(sz))
	_, _ = g.ReadAt(buf, 0)
	for i := 0; i < 4096; i++ {
		if buf[i] != 0 {
			t.Fatalf("first write leaked at %d", i)
		}
	}
	for i := 4096; i < len(buf); i++ {
		if buf[i] != 2 {
			t.Fatalf("torn tail wrong at %d", i)
		}
	}
}

func TestCrashFSRenameKeepsHandle(t *testing.T) {
	// The manifest-compaction pattern: create tmp, write, sync, rename
	// over the live name, keep appending through the original handle.
	cfs := NewCrashFS(NewMemFS(), CrashDrop)
	f, _ := cfs.Create("M.tmp")
	_, _ = f.Write([]byte("snap"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Rename("M.tmp", "M"); err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte("+edit"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	cfs.Crash()
	cfs.Recover()
	g, err := cfs.Open("M")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "snap+edit" {
		t.Fatalf("got %q", buf)
	}
	if cfs.Exists("M.tmp") {
		t.Fatal("tmp should be gone")
	}
}

func TestCrashFSRemoveDurable(t *testing.T) {
	cfs := NewCrashFS(NewMemFS(), CrashDrop)
	f, _ := cfs.Create("x")
	_, _ = f.Write([]byte("abc"))
	_ = f.Sync()
	if err := cfs.Remove("x"); err != nil {
		t.Fatal(err)
	}
	cfs.Crash()
	cfs.Recover()
	if _, err := cfs.Open("x"); err == nil {
		t.Fatal("removed file should stay removed after crash")
	}
}

func TestFaultFSPathScoped(t *testing.T) {
	ffs := NewFaultFS(NewMemFS())
	a, _ := ffs.Create("dir/a.mst")
	b, _ := ffs.Create("dir/b.log")
	ffs.FailAfterPath(FaultWrite, ".mst", 0)
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatal("log write should pass")
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("mst write should fail, got %v", err)
	}
	// Non-sticky: disarmed after firing.
	if _, err := a.Write([]byte("x")); err != nil {
		t.Fatal("second mst write should pass")
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	f, _ := ffs.Create("x")
	ffs.FailWithNoSpace(3)
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want no-space error, got %v", err)
	}
	if n != 3 {
		t.Fatalf("short write n=%d", n)
	}
	// The prefix really reached the inner FS.
	g, _ := mem.Open("x")
	buf := make([]byte, 3)
	if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Fatalf("inner content %q", buf)
	}
}

func TestFaultFSClose(t *testing.T) {
	ffs := NewFaultFS(NewMemFS())
	f, _ := ffs.Create("x")
	ffs.FailAfter(FaultClose, 0)
	if err := f.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("close should fail, got %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("second close should pass")
	}
	if ffs.Hits(FaultClose) != 1 {
		t.Fatalf("hits %d", ffs.Hits(FaultClose))
	}
}
