package vfs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

// pattern is n bytes that differ between files (seed) and along a file,
// so a page read from the wrong file or the wrong offset shows.
func pattern(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7+i/memPageSize)
	}
	return p
}

// writeFile creates name holding data and returns the handle, open.
func writeFile(t *testing.T, fs *MemFS, name string, data []byte) File {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

// churn creates, fills with 0xEE, closes and removes n files of pages
// pages each: it takes every page the free list holds and scribbles on
// it, then hands the pages back.
func churn(t *testing.T, fs *MemFS, n, pages int) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("churn-%d", i)
		f := writeFile(t, fs, name, bytes.Repeat([]byte{0xEE}, pages*memPageSize))
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
}

func freeLen(fs *MemFS) int {
	fs.freeMu.Lock()
	defer fs.freeMu.Unlock()
	return len(fs.free)
}

// wantContent reads all of f and compares it with want.
func wantContent(t *testing.T, f File, want []byte, what string) {
	t.Helper()
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); n != len(want) || (err != nil && err != io.EOF) {
		t.Fatalf("%s: read %d of %d bytes, %v", what, n, len(want), err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s: byte %d is %#x, want %#x", what, i, got[i], want[i])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestMemFSRecyclesOnlyClosedUnlinkedFiles checks the free list's
// contract: a file's pages are reused only once no name refers to it and
// its last handle has closed, a reused page reads as zeros wherever it
// was not written, and Truncate's dropped pages come back zeroed too.
func TestMemFSRecyclesOnlyClosedUnlinkedFiles(t *testing.T) {
	const pages = 3
	size := pages*memPageSize - 123

	t.Run("open_after_remove", func(t *testing.T) {
		fs := NewMemFS()
		want := pattern(1, size)
		w := writeFile(t, fs, "a", want)
		r, err := fs.Open("a")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("a"); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		churn(t, fs, 4, pages+1)
		wantContent(t, r, want, "a handle open across Remove")
		if n := freeLen(fs); n != pages+1 {
			t.Fatalf("free list holds %d pages with the removed file open, want the churn's %d", n, pages+1)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if n := freeLen(fs); n != 2*pages+1 {
			t.Fatalf("free list holds %d pages after the last Close, want %d", n, 2*pages+1)
		}
	})

	t.Run("reused_pages_read_zeros", func(t *testing.T) {
		fs := NewMemFS()
		churn(t, fs, 1, pages)
		if n := freeLen(fs); n != pages {
			t.Fatalf("free list holds %d pages, want %d", n, pages)
		}
		f, err := fs.Create("b")
		if err != nil {
			t.Fatal(err)
		}
		// A write in the middle of the first page, then a footer at the
		// end of the third, as an MSTable writes its metadata.
		mid := []byte("middle")
		if _, err := f.WriteAt(mid, 5000); err != nil {
			t.Fatal(err)
		}
		tail := []byte("footer")
		tailOff := int64(pages*memPageSize - len(tail))
		if _, err := f.WriteAt(tail, tailOff); err != nil {
			t.Fatal(err)
		}
		if n := freeLen(fs); n != pages-2 {
			t.Fatalf("free list holds %d pages after two pages were written, want %d", n, pages-2)
		}
		want := make([]byte, pages*memPageSize)
		copy(want[5000:], mid)
		copy(want[tailOff:], tail)
		wantContent(t, f, want, "a file on reused pages")
	})

	t.Run("create_and_rename_over_open_name", func(t *testing.T) {
		fs := NewMemFS()
		wantC := pattern(2, size)
		old := writeFile(t, fs, "c", wantC)
		fresh := writeFile(t, fs, "c", pattern(3, size))
		wantR := pattern(4, size)
		dst := writeFile(t, fs, "r", wantR)
		src := writeFile(t, fs, "r.tmp", pattern(5, size))
		if err := fs.Rename("r.tmp", "r"); err != nil {
			t.Fatal(err)
		}
		for _, f := range []File{fresh, src} {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		churn(t, fs, 4, pages)
		wantContent(t, old, wantC, "a handle open across Create over its name")
		wantContent(t, dst, wantR, "a handle open across Rename over its name")
		before := freeLen(fs)
		for _, f := range []File{old, dst} {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if n := freeLen(fs); n != before+2*pages {
			t.Fatalf("free list holds %d pages after closing two replaced files, want %d", n, before+2*pages)
		}
	})

	t.Run("second_close_does_nothing", func(t *testing.T) {
		fs := NewMemFS()
		want := pattern(6, size)
		w := writeFile(t, fs, "d", want)
		r, err := fs.Open("d")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("d"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		churn(t, fs, 4, pages)
		wantContent(t, r, want, "a handle open beside a handle closed twice")
	})

	t.Run("truncate_then_regrow", func(t *testing.T) {
		fs := NewMemFS()
		f := writeFile(t, fs, "e", pattern(7, size))
		const cut = memPageSize + 100
		if err := fs.Truncate("e", cut); err != nil {
			t.Fatal(err)
		}
		if n := freeLen(fs); n != pages-2 {
			t.Fatalf("free list holds %d pages after Truncate, want %d", n, pages-2)
		}
		end := []byte("end")
		if _, err := f.WriteAt(end, int64(size)); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, size+len(end))
		copy(want, pattern(7, cut))
		copy(want[size:], end)
		wantContent(t, f, want, "a file truncated and regrown")
	})

	// Under -race: a reader of a removed file that is still open, beside
	// a writer that creates, fills and removes other files.
	t.Run("reader_beside_churn", func(t *testing.T) {
		fs := NewMemFS()
		want := pattern(8, size)
		r := writeFile(t, fs, "f", want)
		if err := fs.Remove("f"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("g-%d", i)
				g, err := fs.Create(name)
				if err == nil {
					_, err = g.WriteAt(bytes.Repeat([]byte{0xEE}, pages*memPageSize), 0)
				}
				if err == nil {
					err = g.Close()
				}
				if err == nil {
					err = fs.Remove(name)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		got := make([]byte, size)
		for i := 0; i < 50; i++ {
			if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if j := firstDiff(got, want); j >= 0 {
				t.Fatalf("read %d: byte %d of the removed file is %#x, want %#x", i, j, got[j], want[j])
			}
		}
		wg.Wait()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecycledPagesNeverLeak runs each history on pages a removed file
// scribbled on (0xEE) and checks that the file reads back exactly what
// was written, zeros everywhere else: pages come off the free list
// uncleared, so every byte a write or Truncate exposes without writing
// it must be zeroed by that call.  The same history on a new MemFS
// must materialize the same number of pages.
func TestRecycledPagesNeverLeak(t *testing.T) {
	type step struct {
		off  int64
		data []byte // nil: Truncate to off
	}
	write := func(off int64, seed byte, n int) step { return step{off, pattern(seed, n)} }
	truncate := func(n int64) step { return step{off: n} }
	const ps = memPageSize
	cases := []struct {
		name  string
		steps []step
	}{
		{"write_past_eof", []step{
			write(0, 1, 100),
			write(2*ps+50, 2, 10),
		}},
		{"hole_inside_fresh_page", []step{
			write(3*ps-6, 3, 6), // a footer first, as an MSTable writes it
			write(ps+5000, 4, 7),
			write(2*ps-3, 5, 9), // across a page boundary into two fresh pages
		}},
		{"truncate_down_then_write_past_old_end", []step{
			write(0, 6, 2*ps-123),
			truncate(ps + 100),
			write(3*ps, 7, 5),
		}},
		{"truncate_down_then_write_inside_old_end", []step{
			write(0, 8, 2*ps-123),
			truncate(ps + 100),
			write(ps+300, 9, 5),
		}},
		{"truncate_up", []step{
			write(0, 10, ps+200),
			truncate(ps + 100),
			truncate(3*ps + 7),
		}},
		{"truncate_up_from_page_boundary", []step{
			write(0, 11, 2*ps),
			truncate(ps),
			truncate(ps + 40),
			write(ps+60, 12, 3),
		}},
	}
	run := func(t *testing.T, fs *MemFS, steps []step) (File, []byte) {
		t.Helper()
		f, err := fs.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		for _, s := range steps {
			if s.data == nil {
				if err := fs.Truncate("x", s.off); err != nil {
					t.Fatal(err)
				}
				model = append(model[:min(int64(len(model)), s.off)], make([]byte, max(0, s.off-int64(len(model))))...)
				continue
			}
			if _, err := f.WriteAt(s.data, s.off); err != nil {
				t.Fatal(err)
			}
			if end := int(s.off) + len(s.data); end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[s.off:], s.data)
		}
		return f, model
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recycled := NewMemFS()
			churn(t, recycled, 1, 4)
			f, want := run(t, recycled, c.steps)
			if size, _ := f.Size(); size != int64(len(want)) {
				t.Fatalf("size %d, want %d", size, len(want))
			}
			wantContent(t, f, want, "a file on recycled pages")
			fresh := NewMemFS()
			run(t, fresh, c.steps)
			if got, want := recycled.AllocatedBytes(), fresh.AllocatedBytes(); got != want {
				t.Fatalf("AllocatedBytes %d on recycled pages, %d on new ones", got, want)
			}
		})
	}
}
