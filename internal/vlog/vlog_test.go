package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iamdb/internal/corrupt"
	"iamdb/internal/vfs"
)

func openT(t *testing.T, fs vfs.FS, segSize int64) *Log {
	t.Helper()
	l, _, err := Open(fs, "v", segSize)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendReadRoundtrip(t *testing.T) {
	fs := vfs.NewMemFS()
	l := openT(t, fs, 1<<20)
	defer l.Close()
	type rec struct {
		key, val []byte
		p        Pointer
	}
	var recs []rec
	for i := 0; i < 100; i++ {
		k := fmt.Appendf(nil, "key-%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 10+i*7)
		p, err := l.Append(k, v)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{k, v, p})
	}
	for _, r := range recs {
		got, err := l.Read(r.p, r.key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r.val) {
			t.Fatalf("value mismatch for %q", r.key)
		}
	}
	// A pointer resolved under the wrong key is a typed corruption, not
	// wrong bytes.
	if _, err := l.Read(recs[3].p, []byte("imposter")); !isCorrupt(err) {
		t.Fatalf("wrong-key read: %v", err)
	}
}

// isCorrupt reports whether err carries vlog corruption provenance.
func isCorrupt(err error) bool {
	var ce *corrupt.Error
	return errors.As(err, &ce) && errors.Is(err, ErrBad)
}

func TestRotationAndPickGC(t *testing.T) {
	fs := vfs.NewMemFS()
	l := openT(t, fs, 512) // tiny segments force rotation
	defer l.Close()
	val := bytes.Repeat([]byte("v"), 100)
	var ptrs []Pointer
	for i := 0; i < 30; i++ {
		p, err := l.Append(fmt.Appendf(nil, "k%02d", i), val)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got segments %v", segs)
	}
	// No discards yet: nothing is GC-worthy.
	if _, ok := l.PickGC(0.5); ok {
		t.Fatal("PickGC with no discards should find nothing")
	}
	// Credit most of segment 1's bytes as dropped; it becomes the pick.
	first := segs[0]
	l.NoteDiscard(first, l.Stats().Bytes) // over-credit is fine for the ratio
	seg, ok := l.PickGC(0.5)
	if !ok || seg != first {
		t.Fatalf("PickGC = %d,%v want %d,true", seg, ok, first)
	}
	// A bad mark fences the segment from GC.
	l.MarkBad(first)
	if _, ok := l.PickGC(0.5); ok {
		t.Fatal("PickGC should skip segments marked bad")
	}
	// The head is never a candidate even with huge discard credit.
	l.NoteDiscard(l.Head(), 1<<40)
	if seg, ok := l.PickGC(0.5); ok && seg == l.Head() {
		t.Fatal("PickGC chose the head segment")
	}
	// Old records still resolve across rotation.
	if _, err := l.Read(ptrs[0], []byte("k00")); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveSegmentRefusesHead(t *testing.T) {
	fs := vfs.NewMemFS()
	l := openT(t, fs, 256)
	defer l.Close()
	val := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("k"), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.RemoveSegment(l.Head()); err == nil {
		t.Fatal("RemoveSegment(head) should refuse")
	}
	segs := l.Segments()
	if err := l.RemoveSegment(segs[0]); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); len(got) != len(segs)-1 || got[0] == segs[0] {
		t.Fatalf("segments after removal: %v", got)
	}
	if fs.Exists(SegmentName("v", segs[0])) {
		t.Fatal("removed segment still on disk")
	}
}

func TestReopenContinuesAppends(t *testing.T) {
	fs := vfs.NewMemFS()
	l := openT(t, fs, 1<<20)
	p1, err := l.Append([]byte("a"), []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st, err := Open(fs, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.SuspectBytes != 0 {
		t.Fatalf("clean reopen found %d suspect bytes", st.SuspectBytes)
	}
	p2, err := l2.Append([]byte("b"), []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Segment != p1.Segment || p2.Offset <= p1.Offset {
		t.Fatalf("reopened append did not continue: %+v then %+v", p1, p2)
	}
	for _, c := range []struct {
		p   Pointer
		key string
		val string
	}{{p1, "a", "first"}, {p2, "b", "second"}} {
		got, err := l2.Read(c.p, []byte(c.key))
		if err != nil || string(got) != c.val {
			t.Fatalf("Read(%q) = %q, %v", c.key, got, err)
		}
	}
}

// Open and scrub classify a damaged head segment with one walk: whatever
// the damage, OpenStats' suspect tail is the figure ScanFile (the call
// scrub and the collector make) reports for the same file.
func TestOpenReportsTornTail(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(t *testing.T, fs *vfs.MemFS, name string, p Pointer)
		// suspect is the unparseable tail the damage leaves behind.
		suspect func(p Pointer) (n, off int64)
	}{
		// Tear the last record mid-way, as a crash between append and
		// sync could leave it.
		{"torn tail", func(t *testing.T, fs *vfs.MemFS, name string, p Pointer) {
			if err := fs.Truncate(name, p.Offset+int64(p.Len)/2); err != nil {
				t.Fatal(err)
			}
		}, func(p Pointer) (int64, int64) { return int64(p.Len) / 2, p.Offset }},
		{"flipped byte in the last record", func(t *testing.T, fs *vfs.MemFS, name string, p Pointer) {
			if _, _, _, err := vfs.CorruptByte(fs, name, p.Offset+int64(p.Len)-1, vfs.RotFlip); err != nil {
				t.Fatal(err)
			}
		}, func(p Pointer) (int64, int64) { return int64(p.Len), p.Offset }},
		// A full-size header with the wrong magic: every byte is suspect
		// and appends move to a fresh head after it.
		{"bad magic", func(t *testing.T, fs *vfs.MemFS, name string, p Pointer) {
			if _, _, _, err := vfs.CorruptByte(fs, name, 0, vfs.RotFlip); err != nil {
				t.Fatal(err)
			}
		}, func(p Pointer) (int64, int64) { return p.Offset + int64(p.Len), 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			l := openT(t, fs, 1<<20)
			if _, err := l.Append([]byte("whole"), []byte("value")); err != nil {
				t.Fatal(err)
			}
			p, err := l.Append([]byte("torn"), bytes.Repeat([]byte("x"), 100))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			name := SegmentName("v", p.Segment)
			c.damage(t, fs, name, p)

			// What scrub is told about the file, sealed or head: a typed
			// corruption and where the bytes stop parsing.
			sc, serr := ScanFile(fs, name, nil)
			if !isCorrupt(serr) {
				t.Fatalf("ScanFile of the damaged segment: %+v, %v", sc, serr)
			}
			l2, st, err := Open(fs, "v", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			wantN, wantOff := c.suspect(p)
			if st.SuspectBytes != wantN || st.SuspectOffset != wantOff {
				t.Fatalf("suspect = %d@%d, want %d@%d", st.SuspectBytes, st.SuspectOffset, wantN, wantOff)
			}
			if st.SuspectBytes != sc.Suspect || st.SuspectOffset != sc.Valid {
				t.Fatalf("Open says %d@%d, the scrub-side walk %d@%d",
					st.SuspectBytes, st.SuspectOffset, sc.Suspect, sc.Valid)
			}
			// The intact record still resolves; the damaged one fails typed.
			if _, err := l2.Read(Pointer{Segment: p.Segment, Offset: int64(HeaderSize),
				Len: uint32(RecordLen([]byte("whole"), []byte("value")))}, []byte("whole")); err != nil {
				t.Fatal(err)
			}
			// New appends go after the suspect region.
			p3, err := l2.Append([]byte("after"), []byte("tail"))
			if err != nil {
				t.Fatal(err)
			}
			if !sc.HeaderOK {
				if st.Segments != 2 || l2.Head() != p.Segment+1 || p3.Segment != l2.Head() {
					t.Fatalf("bad magic: %d segments, head %d, append in %d", st.Segments, l2.Head(), p3.Segment)
				}
				return
			}
			if _, err := l2.Read(p, []byte("torn")); !isCorrupt(err) {
				t.Fatalf("read into the suspect tail: %v", err)
			}
			if p3.Segment != p.Segment || p3.Offset < st.SuspectOffset+st.SuspectBytes {
				t.Fatalf("append overwrote the suspect region at %d", p3.Offset)
			}
		})
	}
}

func TestReadDetectsFlippedByte(t *testing.T) {
	fs := vfs.NewMemFS()
	l := openT(t, fs, 1<<20)
	defer l.Close()
	p, err := l.Append([]byte("key"), bytes.Repeat([]byte("v"), 50))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(SegmentName("v", p.Segment))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one value byte in place.
	one := []byte{0}
	if _, err := f.ReadAt(one, p.Offset+int64(p.Len)-1); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xff
	if _, err := f.WriteAt(one, p.Offset+int64(p.Len)-1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := l.Read(p, []byte("key")); !isCorrupt(err) {
		t.Fatalf("flipped byte not detected: %v", err)
	}
}

func TestScanFileCountsRecords(t *testing.T) {
	fs := vfs.NewMemFS()
	l := openT(t, fs, 1<<20)
	want := 17
	for i := 0; i < want; i++ {
		if _, err := l.Append(fmt.Appendf(nil, "k%d", i), []byte("val")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got int
	sc, err := ScanFile(fs, SegmentName("v", 1), func(key, val []byte, off int64, n int) error {
		got++
		return nil
	})
	if err != nil || got != want {
		t.Fatalf("scan: %d records, %v", got, err)
	}
	f, _ := fs.Open(SegmentName("v", 1))
	size, _ := f.Size()
	f.Close()
	if sc != (ScanResult{Valid: size, HeaderOK: true}) {
		t.Fatalf("scanned %+v of %d bytes", sc, size)
	}
}

func TestPointerRoundtrip(t *testing.T) {
	p := Pointer{Segment: 7, Offset: 123456789, Len: 4242}
	enc := p.Encode()
	if len(enc) != PointerLen {
		t.Fatalf("encoded length %d", len(enc))
	}
	got, ok := DecodePointer(enc)
	if !ok || got != p {
		t.Fatalf("roundtrip: %+v, %v", got, ok)
	}
	if _, ok := DecodePointer(enc[:PointerLen-1]); ok {
		t.Fatal("short pointer decoded")
	}
}
