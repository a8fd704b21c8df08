package table

import (
	"errors"
	"fmt"
	"testing"

	"iamdb/internal/corrupt"
	"iamdb/internal/kv"
	"iamdb/internal/vfs"
)

// appended returns an open handle on a table that took n appends of forty
// records each, reopened after the last one (the handle scrub would hold),
// with the footer generation it stands at.
func appended(t *testing.T, fs vfs.FS, name string, n int) (*Table, uint64) {
	t.Helper()
	tb := mustCreate(t, fs, name)
	for i := 0; i < n; i++ {
		keys := make([]string, 40)
		for j := range keys {
			keys[j] = fmt.Sprintf("k%02d-%d", j, i)
		}
		if _, err := tb.Append(kvIter(kv.Seq(10*(i+1)), keys...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Sync(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	tb, err := Open(fs, name, 1, Options{})
	if err != nil || tb.Suspect() != nil || tb.NumSeqs() != n {
		t.Fatalf("reopen: %v, suspect %v, %d seqs", err, tb.Suspect(), tb.NumSeqs())
	}
	return tb, tb.gen.Load()
}

// poke writes one byte of a file in place.
func poke(t *testing.T, fs vfs.FS, name string, off int64, b byte) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{b}, off); err != nil {
		t.Fatal(err)
	}
}

// Scrub must report a rotted committed footer before a reopen falls back a
// generation; the same damage in the standby slot is what an in-flight
// footer write looks like and stays a non-finding on the open handle.
func TestVerifyReportsRottedCommittedFooter(t *testing.T) {
	fs := vfs.NewMemFS()
	tb, gen := appended(t, fs, "1.mst", 2)
	defer tb.Close()
	clean, err := tb.Verify(nil)
	if err != nil || clean != (VerifyStats{Tables: 1, Seqs: 2, Blocks: 2, Bytes: clean.Bytes, Entries: 80}) {
		t.Fatalf("clean table: %+v, %v", clean, err)
	}
	tail := tb.Capacity() - tailLen
	committed := tail + int64(gen%2)*footerSlot
	standby := tail + int64((gen+1)%2)*footerSlot

	old, _, _, err := vfs.CorruptByte(fs, "1.mst", standby+20, vfs.RotFlip)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := tb.Verify(nil); err != nil || st != clean {
		t.Fatalf("damaged standby slot: %+v, %v", st, err)
	}
	poke(t, fs, "1.mst", standby+20, old)

	if _, _, _, err := vfs.CorruptByte(fs, "1.mst", committed+20, vfs.RotFlip); err != nil {
		t.Fatal(err)
	}
	_, err = tb.Verify(nil)
	var ce *corrupt.Error
	if !errors.As(err, &ce) || ce.Layer != corrupt.LayerTableFooter || ce.Path != "1.mst" {
		t.Fatalf("rotted committed footer: Verify = %v, want a table.footer corruption", err)
	}
	// What the finding warns of: the file now reopens one commit short.
	re, err := Open(fs, "1.mst", 1, Options{})
	if err != nil || re.NumSeqs() != 1 || re.Suspect() == nil {
		t.Fatalf("reopen: %v", err)
	}
	re.Close()
}

// Open and Verify are one opinion.  For every byte of the footer tail and
// of the metadata copies beneath it, damaged one at a time: Verify on a
// handle opened before the damage fails exactly when a fresh Open would
// lose a commit (fail, or come back with fewer sequences), and such an
// Open says so through Suspect.  The one thing Open reports alone is a
// damaged standby slot, which beside a live appender is an in-flight
// footer write.
func TestOpenAndVerifyAgree(t *testing.T) {
	fs := vfs.NewMemFS()
	tb, gen := appended(t, fs, "1.mst", 3)
	defer tb.Close()
	standby := tb.Capacity() - tailLen + int64((gen+1)%2)*footerSlot
	points := 0
	// metaFloor is where the newest metadata copy starts; the older
	// copies lie between it and the tail.
	for off := tb.metaFloor; off < tb.Capacity(); off++ {
		for _, mode := range []vfs.RotMode{vfs.RotFlip, vfs.RotZero} {
			old, _, changed, err := vfs.CorruptByte(fs, "1.mst", off, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !changed {
				continue
			}
			points++
			_, verr := tb.Verify(nil)
			var ce *corrupt.Error
			if verr != nil && !errors.As(verr, &ce) {
				t.Fatalf("offset %d (%v): Verify failed untyped: %v", off, mode, verr)
			}
			re, oerr := Open(fs, "1.mst", 1, Options{})
			lost := oerr != nil || re.NumSeqs() < 3
			if (verr != nil) != lost {
				t.Fatalf("offset %d (%v): Verify = %v, but a reopen gives err=%v lost=%v",
					off, mode, verr, oerr, lost)
			}
			if oerr == nil {
				inStandby := off >= standby && off < standby+footerSlot
				if suspect := re.Suspect() != nil; suspect != (lost || inStandby) {
					t.Fatalf("offset %d (%v): reopen suspect=%v with lost=%v standby=%v",
						off, mode, suspect, lost, inStandby)
				}
				re.Close()
			}
			poke(t, fs, "1.mst", off, old)
		}
	}
	if points < 1000 {
		t.Fatalf("only %d damage points: the table's tail is smaller than the test assumes", points)
	}
	if _, err := tb.Verify(nil); err != nil {
		t.Fatalf("restored file: %v", err)
	}
}

// A Verify beside the appender sees the file at the generation it read or
// a newer one, never a finding: run under -race it also holds the appender
// to publishing gen atomically.
func TestVerifyBesideAppender(t *testing.T) {
	fs := vfs.NewMemFS()
	tb := mustCreate(t, fs, "1.mst")
	defer tb.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if _, err := tb.Append(kvIter(kv.Seq(i+1), fmt.Sprintf("k%04d", i))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	for passes := 0; ; passes++ {
		if _, err := tb.Verify(nil); err != nil {
			t.Fatalf("pass %d beside the appender: %v", passes, err)
		}
		select {
		case <-done:
			if st, err := tb.Verify(nil); err != nil || st.Seqs != 300 {
				t.Fatalf("final pass: %+v, %v", st, err)
			}
			return
		default:
		}
	}
}
