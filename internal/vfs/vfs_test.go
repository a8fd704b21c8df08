package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testFSBasics(t *testing.T, fs FS) {
	t.Helper()
	f, err := fs.Create("a.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Size(); n != 11 {
		t.Fatalf("size %d", n)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("read %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if !fs.Exists("a.tbl") {
		t.Error("a.tbl should exist")
	}
	if fs.Exists("missing") {
		t.Error("missing should not exist")
	}
	if err := fs.Rename("a.tbl", "b.tbl"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a.tbl") || !fs.Exists("b.tbl") {
		t.Error("rename did not move file")
	}
	g, err := fs.Open("b.tbl")
	if err != nil {
		t.Fatal(err)
	}
	buf2 := make([]byte, 11)
	if _, err := g.ReadAt(buf2, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf2) != "hello world" {
		t.Fatalf("after rename read %q", buf2)
	}
	g.Close()

	if err := fs.Remove("b.tbl"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("b.tbl") {
		t.Error("remove failed")
	}
	if _, err := fs.Open("b.tbl"); err == nil {
		t.Error("open of removed file should fail")
	}
	if err := fs.Remove("b.tbl"); err == nil {
		t.Error("double remove should fail")
	}
}

func TestMemFSBasics(t *testing.T) { testFSBasics(t, NewMemFS()) }

func TestOSFSBasics(t *testing.T) {
	dir := t.TempDir()
	fs := chrootFS{OSFS{}, dir}
	testFSBasics(t, fs)
}

// TestClosedHandleRefusesUse checks that every call but Close on a
// closed handle fails with os.ErrClosed, on MemFS as on OSFS, and that a
// second Close does nothing.
func TestClosedHandleRefusesUse(t *testing.T) {
	calls := []struct {
		name string
		call func(f File) error
	}{
		{"ReadAt", func(f File) error { _, err := f.ReadAt(make([]byte, 1), 0); return err }},
		{"WriteAt", func(f File) error { _, err := f.WriteAt([]byte("x"), 0); return err }},
		{"Write", func(f File) error { _, err := f.Write([]byte("x")); return err }},
		{"Sync", func(f File) error { return f.Sync() }},
		{"Size", func(f File) error { _, err := f.Size(); return err }},
	}
	for _, dev := range []struct {
		name string
		fs   FS
	}{{"MemFS", NewMemFS()}, {"OSFS", chrootFS{OSFS{}, t.TempDir()}}} {
		for _, c := range calls {
			f, err := dev.fs.Create("f-" + c.name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.call(f); !errors.Is(err, os.ErrClosed) {
				t.Errorf("%s: %s on a closed handle: %v", dev.name, c.name, err)
			}
			if dev.name == "MemFS" {
				if err := f.Close(); err != nil {
					t.Errorf("second Close: %v", err)
				}
			}
		}
	}
}

// chrootFS prefixes all names with a directory, letting the shared FS
// conformance test run against OSFS inside a temp dir.
type chrootFS struct {
	inner FS
	root  string
}

func (c chrootFS) p(name string) string            { return c.root + "/" + name }
func (c chrootFS) Create(n string) (File, error)   { return c.inner.Create(c.p(n)) }
func (c chrootFS) Open(n string) (File, error)     { return c.inner.Open(c.p(n)) }
func (c chrootFS) Remove(n string) error           { return c.inner.Remove(c.p(n)) }
func (c chrootFS) Rename(o, n string) error        { return c.inner.Rename(c.p(o), c.p(n)) }
func (c chrootFS) List(d string) ([]string, error) { return c.inner.List(c.p(d)) }
func (c chrootFS) MkdirAll(d string) error         { return c.inner.MkdirAll(c.p(d)) }
func (c chrootFS) Exists(n string) bool            { return c.inner.Exists(c.p(n)) }

func TestMemFSWriteAtGrows(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	if _, err := f.WriteAt([]byte("tail"), 100); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Size(); n != 104 {
		t.Fatalf("size %d", n)
	}
	// The hole reads as zeros.
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 50); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Errorf("hole not zero: %v", buf)
	}
	if _, err := f.ReadAt(buf, 100); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "tail" {
		t.Errorf("got %q", buf)
	}
}

// TestMemFSTruncate cuts a file by name under a handle held open on it:
// the handle sees the cut, and regrowth past it reads zeros.
func TestMemFSTruncate(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	f.Write([]byte("0123456789"))
	if err := fs.Truncate("x", 4); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Size(); n != 4 {
		t.Fatalf("size %d", n)
	}
	if err := fs.Truncate("x", 8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	f.ReadAt(buf, 0)
	if string(buf[:4]) != "0123" || !bytes.Equal(buf[4:], make([]byte, 4)) {
		t.Errorf("truncate grow: %q", buf)
	}
	if err := fs.Truncate("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("truncate of a missing file: %v", err)
	}
}

func TestMemFSList(t *testing.T) {
	fs := NewMemFS()
	fs.MkdirAll("db")
	for _, n := range []string{"db/2.tbl", "db/1.tbl", "db/sub/3.tbl", "top.txt"} {
		f, _ := fs.Create(n)
		f.Close()
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1.tbl", "2.tbl"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("List(db) = %v", names)
	}
}

func TestMemFSConcurrent(t *testing.T) {
	fs := NewMemFS()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			f, err := fs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				f.Write([]byte{byte(j)})
			}
			if n, _ := f.Size(); n != 100 {
				t.Errorf("file %s size %d", name, n)
			}
			f.Close()
		}(i)
	}
	wg.Wait()
	if names, err := fs.List(""); err != nil || len(names) != 8 {
		t.Errorf("list: %v, %v", names, err)
	}
}

func TestStatsFSCounts(t *testing.T) {
	var st IOStats
	fs := NewStatsFS(NewMemFS(), &st)
	f, _ := fs.Create("x")
	f.WriteAt(make([]byte, 100), 0)   // seek (first op)
	f.WriteAt(make([]byte, 100), 100) // sequential
	f.WriteAt(make([]byte, 10), 50)   // seek
	buf := make([]byte, 60)
	f.ReadAt(buf, 0)  // seek
	f.ReadAt(buf, 60) // sequential
	f.ReadAt(buf, 0)  // seek

	s := st.Snapshot()
	if s.BytesWritten != 210 {
		t.Errorf("written %d", s.BytesWritten)
	}
	if s.BytesRead != 180 {
		t.Errorf("read %d", s.BytesRead)
	}
	if s.WriteOps != 3 || s.ReadOps != 3 {
		t.Errorf("ops %d/%d", s.WriteOps, s.ReadOps)
	}
	if s.Seeks != 4 {
		t.Errorf("seeks %d", s.Seeks)
	}
	d := s.Sub(IOSnapshot{BytesWritten: 10})
	if d.BytesWritten != 200 {
		t.Errorf("sub %d", d.BytesWritten)
	}
}

func TestDiskClockCharges(t *testing.T) {
	clock := new(DiskClock)
	prof := HDDProfile()
	d := NewDisk(NewMemFS(), prof, clock)
	f, _ := d.Create("x")

	f.WriteAt(make([]byte, 1<<20), 0) // 1 MiB: seek + transfer
	transfer := int64(1<<20) * int64(1e9) / prof.WriteBandwidth
	got := clock.Elapsed().Nanoseconds()
	exp := prof.SeekLatency.Nanoseconds() + transfer
	if got < exp*95/100 || got > exp*105/100 {
		t.Errorf("clock %d want about %d", got, exp)
	}

	start := clock.Elapsed()
	f.WriteAt(make([]byte, 1<<20), 1<<20) // sequential continuation: no seek
	got = (clock.Elapsed() - start).Nanoseconds()
	if got < transfer*95/100 || got > transfer*105/100 {
		t.Errorf("sequential write clock %d want about %d", got, transfer)
	}

	start = clock.Elapsed()
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0)
	if clock.Elapsed()-start < prof.SeekLatency {
		t.Error("random read must pay a seek")
	}

	// The clock charges exactly the seeks StatsFS counts: a sequential
	// Write leaves the positioned-write mark alone, so the WriteAt that
	// follows it seeks in both.
	t.Run("one seek model", func(t *testing.T) {
		clock := new(DiskClock)
		var st IOStats
		fs := NewStatsFS(NewDisk(NewMemFS(), DiskProfile{SeekLatency: 1000}, clock), &st)
		f, _ := fs.Create("x")
		f.Write(make([]byte, 100))
		f.WriteAt(make([]byte, 100), 100)
		buf := make([]byte, 100)
		f.ReadAt(buf, 0)
		f.ReadAt(buf, 100)
		f.ReadAt(buf, 0)
		if charged := int64(clock.Elapsed() / 1000); st.Seeks.Load() != charged {
			t.Errorf("StatsFS counted %d seeks, Disk charged %d", st.Seeks.Load(), charged)
		}
	})
}

func TestDiskSSDFasterThanHDD(t *testing.T) {
	run := func(p DiskProfile) time.Duration {
		clock := new(DiskClock)
		d := NewDisk(NewMemFS(), p, clock)
		f, _ := d.Create("x")
		for i := int64(0); i < 100; i++ {
			f.WriteAt(make([]byte, 4096), i*8192) // all seeks
		}
		return clock.Elapsed()
	}
	hdd, ssd := run(HDDProfile()), run(SSDProfile())
	if ssd*10 > hdd {
		t.Errorf("SSD (%v) should be >10x faster than HDD (%v) on random writes", ssd, hdd)
	}
}

func TestMemFSWriteAtRoundTripQuick(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := NewMemFS()
		fh, _ := fs.Create("q")
		var ref []byte
		off := int64(0)
		for _, c := range chunks {
			fh.WriteAt(c, off)
			ref = append(ref, c...)
			off += int64(len(c))
		}
		if len(ref) == 0 {
			return true
		}
		got := make([]byte, len(ref))
		fh.ReadAt(got, 0)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
