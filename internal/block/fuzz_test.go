package block

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzBlockDecode feeds arbitrary bytes to the block reader: decoding
// either fails cleanly or yields an iterator that terminates without
// panicking, regardless of what the restart array and varint headers
// claim.  Structural damage below the CRC layer (the table strips the
// checksum before handing bytes here) must never crash or loop.  The
// bytes go through a Reader and an Iter that held another block first,
// as the table's readers reuse theirs, and must decode as a fresh pair
// decodes them.
func FuzzBlockDecode(f *testing.F) {
	b := NewBuilder()
	b.Add([]byte("alpha"), []byte("one"))
	b.Add([]byte("beta"), []byte("two"))
	b.Add([]byte("betamax"), []byte("three"))
	valid := b.Finish()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[1:])

	f.Fuzz(func(t *testing.T, data []byte) {
		var r Reader
		if err := r.Init(valid, bytes.Compare); err != nil {
			t.Fatal(err)
		}
		var it Iter
		it.Reset(&r)
		it.Seek([]byte("betamax")) // leaves a key in the storage Reset keeps
		fresh, freshErr := NewReader(data, bytes.Compare)
		err := r.Init(data, bytes.Compare)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("Init on a used reader: %v; NewReader: %v", err, freshErr)
		}
		if err != nil {
			return
		}
		it.Reset(&r)
		fit := fresh.Iter()
		n := 0
		fit.First()
		for it.First(); it.Valid(); it.Next() {
			// Touch every accessor so damaged offsets are exercised.
			if !fit.Valid() || !bytes.Equal(it.Key(), fit.Key()) || !bytes.Equal(it.Value(), fit.Value()) {
				t.Fatalf("entry %d: the reused iterator departs from a fresh one", n)
			}
			if n++; n > 1<<17 {
				t.Fatalf("iterator never terminates (%d entries from %d bytes)", n, len(data))
			}
			fit.Next()
		}
		if fit.Valid() || (it.Err() == nil) != (fit.Err() == nil) {
			t.Fatalf("after %d entries: reused iterator err %v, fresh valid %v err %v", n, it.Err(), fit.Valid(), fit.Err())
		}
		// Seeks against arbitrary structure must also terminate cleanly.
		it.Seek([]byte("beta"))
		_ = it.Err()
	})
}

// The checked-in corpus keeps the verdicts it had when the reader copied
// its restart array out of the trailer: the one valid block is accepted
// with its three entries, the truncated one and the one whose restart
// count was flipped are refused.
func TestFuzzCorpusVerdicts(t *testing.T) {
	want := map[string]int{"valid-block": 3, "truncated-block": -1, "flipped-restart-count": -1}
	paths, err := filepath.Glob("testdata/fuzz/FuzzBlockDecode/*")
	if err != nil || len(paths) != len(want) {
		t.Fatalf("corpus: %v, %v", paths, err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1]), "[]byte(")
		data, uerr := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || uerr != nil {
			t.Fatalf("%s: not a []byte corpus entry", path)
		}
		got := -1
		var r Reader
		if r.Init([]byte(data), bytes.Compare) == nil {
			var it Iter
			it.Reset(&r)
			got = 0
			for it.First(); it.Valid(); it.Next() {
				got++
			}
		}
		if name := filepath.Base(path); got != want[name] {
			t.Errorf("%s: %d entries (-1: refused), want %d", name, got, want[name])
		}
	}
}
