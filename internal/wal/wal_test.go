package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"iamdb/internal/corrupt"
	"iamdb/internal/vfs"
)

func newLog(t *testing.T) (*vfs.MemFS, vfs.File) {
	t.Helper()
	fs := vfs.NewMemFS()
	f, err := fs.Create("test.log")
	if err != nil {
		t.Fatal(err)
	}
	return fs, f
}

func reopen(t *testing.T, fs vfs.FS) vfs.File {
	t.Helper()
	f, err := fs.Open("test.log")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWriteReadSmallRecords(t *testing.T) {
	fs, f := newLog(t)
	w := NewWriter(f)
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%04d", i))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	r := NewReader(reopen(t, fs), "test.log")
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("got %d records want %d", i, len(want))
			}
			break
		}
		if !bytes.Equal(rec, want[i]) {
			t.Fatalf("record %d: %q != %q", i, rec, want[i])
		}
	}
	if r.Dropped != 0 {
		t.Errorf("dropped %d bytes from clean log", r.Dropped)
	}
}

func TestFragmentedRecords(t *testing.T) {
	fs, f := newLog(t)
	w := NewWriter(f)
	sizes := []int{0, 1, headerSize, BlockSize - headerSize, BlockSize, BlockSize + 1, 3 * BlockSize, 100000}
	rng := rand.New(rand.NewSource(7))
	var want [][]byte
	for _, n := range sizes {
		rec := make([]byte, n)
		rng.Read(rec)
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(reopen(t, fs), "test.log")
	for i, wrec := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d (size %d): %v", i, len(wrec), err)
		}
		if !bytes.Equal(rec, wrec) {
			t.Fatalf("record %d (size %d) mismatch", i, len(wrec))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	fs, f := newLog(t)
	w := NewWriter(f)
	w.Append([]byte("good-1"))
	w.Append([]byte("good-2"))
	w.Append(bytes.Repeat([]byte("x"), 5000))
	size, _ := f.Size()
	f.Close()

	// Tear the last record by truncating mid-payload.
	fs.Truncate("test.log", size-1000)
	g := reopen(t, fs)

	var got [][]byte
	dropped, err := Replay(g, "test.log", func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want the 2 intact ones", len(got))
	}
	if string(got[0]) != "good-1" || string(got[1]) != "good-2" {
		t.Fatalf("bad records: %q", got)
	}
	if dropped == 0 {
		t.Error("expected dropped bytes to be reported")
	}
}

// Damage followed by a fragment with a valid checksum cannot be a torn
// tail: the reader must abort with a typed error naming the log, not
// shorten the replay.
func TestCorruptMiddleAborts(t *testing.T) {
	fs, f := newLog(t)
	w := NewWriter(f)
	// Fill more than one block so corruption in block 0 still leaves
	// valid records in block 1.
	big := bytes.Repeat([]byte("a"), BlockSize/2)
	w.Append(big)
	w.Append(big) // spans into block 1
	w.Append([]byte("tail-record"))
	f.Close()

	// Flip a byte in the first record's payload.
	g := reopen(t, fs)
	g.WriteAt([]byte{0xFF}, 100)

	r := NewReader(g, "test.log")
	var err error
	for err == nil {
		_, err = r.Next()
	}
	var ce *corrupt.Error
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: got %v, want a *corrupt.Error wrapping ErrCorrupt", err)
	}
	if ce.Path != "test.log" || ce.Layer != corrupt.LayerWAL {
		t.Errorf("attribution: %+v", ce)
	}
	if r.Dropped == 0 {
		t.Error("corruption should drop bytes")
	}
}

func TestEmptyLog(t *testing.T) {
	fs, f := newLog(t)
	f.Close()
	r := NewReader(reopen(t, fs), "test.log")
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestZeroPaddingHandled(t *testing.T) {
	fs, f := newLog(t)
	w := NewWriter(f)
	// A record sized to leave < headerSize bytes in the block forces
	// zero-padding of the tail.
	w.Append(make([]byte, BlockSize-headerSize-headerSize-3))
	w.Append([]byte("after-pad"))
	f.Close()
	r := NewReader(reopen(t, fs), "test.log")
	r.Next()
	rec, err := r.Next()
	if err != nil || string(rec) != "after-pad" {
		t.Fatalf("got %q %v", rec, err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(recs [][]byte) bool {
		fs := vfs.NewMemFS()
		fh, _ := fs.Create("q.log")
		w := NewWriter(fh)
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				return false
			}
		}
		fh2, _ := fs.Open("q.log")
		r := NewReader(fh2, "test.log")
		for _, want := range recs {
			got, err := r.Next()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := r.Next()
		return err == io.EOF && r.Dropped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// discardFile takes every write and keeps nothing, so an allocation
// count sees the writer alone.
type discardFile struct{ vfs.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }

// TestAppendInOneBlockAllocatesNothing checks that the writer frames a
// fragment in its own buffer and checksums the payload where it lies.
func TestAppendInOneBlockAllocatesNothing(t *testing.T) {
	w := NewWriter(discardFile{})
	rec := make([]byte, 1000)
	// 21 appends (AllocsPerRun's warm-up and 20 runs) of 1 007 bytes
	// each stay inside the first block.
	if n := testing.AllocsPerRun(20, func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Append allocates %.2f per call, want 0", n)
	}
	if w.Offset() > BlockSize {
		t.Fatalf("appends ran %d bytes past one block", w.Offset()-BlockSize)
	}
}

// TestFragmentChecksumsCoverTypeAndPayload checks each fragment header
// of a record spanning three blocks against crc32.Checksum over the
// fragment's type byte followed by its payload: the log format's
// definition, computed the slow way.
func TestFragmentChecksumsCoverTypeAndPayload(t *testing.T) {
	fs, f := newLog(t)
	rec := make([]byte, 2*BlockSize+100)
	rand.New(rand.NewSource(3)).Read(rec)
	if err := NewWriter(f).Append(rec); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*BlockSize)
	n, _ := reopen(t, fs).ReadAt(data, 0)
	data = data[:n]
	table := crc32.MakeTable(crc32.Castagnoli)
	var types []byte
	for off := 0; off < len(data); off += BlockSize {
		hdr := data[off : off+headerSize]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		typ := hdr[6]
		payload := data[off+headerSize : off+headerSize+length]
		want := crc32.Checksum(append([]byte{typ}, payload...), table)
		if got := binary.LittleEndian.Uint32(hdr[0:4]); got != want {
			t.Errorf("block %d: fragment CRC %#x, want %#x over type %d and %d payload bytes",
				off/BlockSize, got, want, typ, length)
		}
		types = append(types, typ)
	}
	if want := []byte{typeFirst, typeMiddle, typeLast}; !bytes.Equal(types, want) {
		t.Fatalf("fragment types %v, want %v", types, want)
	}
	got, err := NewReader(reopen(t, fs), "test.log").Next()
	if err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
}

func BenchmarkAppend1K(b *testing.B) {
	fs := vfs.NewMemFS()
	f, _ := fs.Create("bench.log")
	w := NewWriter(f)
	rec := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(rec)
	}
}
