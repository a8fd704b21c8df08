package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iamdb/internal/block"
	"iamdb/internal/corrupt"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/vfs"
)

// TestIndexSearchMatchesBlockSeek checks the fence search against the
// index block it replaces: for the index the writer builds and the one a
// reopened table decodes from RawIndex, search picks the block that
// block.Iter.Seek over RawIndex picks.  The sequences are built to tie:
// most share a long prefix, keys are shorter than that prefix plus a
// fence, hold 0x00 and 0xff bytes, and one user key has versions on both
// sides of a block boundary.
func TestIndexSearchMatchesBlockSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0xff}
	const prefix = "a-shared-prefix-longer-than-a-fence/"
	for round := 0; round < 40; round++ {
		shared := round%4 != 0 // every fourth sequence shares no prefix
		randKey := func() []byte {
			var k []byte
			if shared {
				k = append(k, prefix...)
			}
			for n := rng.Intn(11); n > 0; n-- {
				k = append(k, alphabet[rng.Intn(len(alphabet))])
			}
			return k
		}
		users := [][]byte{randKey()}
		for n := rng.Intn(400); n > 0; n-- {
			users = append(users, randKey())
		}
		slices.SortFunc(users, bytes.Compare)
		users = slices.CompactFunc(users, bytes.Equal)
		// One user key gets enough versions to fill more than a block.
		hot := users[rng.Intn(len(users))]
		var keys, vals [][]byte
		top := kv.Seq(1 << 20)
		seq := top
		for _, u := range users {
			versions := 1 + rng.Intn(3)
			if bytes.Equal(u, hot) {
				versions = 40
			}
			for v := 0; v < versions; v++ {
				keys = append(keys, kv.MakeInternalKey(u, seq-kv.Seq(v), kv.KindSet))
				vals = append(vals, make([]byte, 100+rng.Intn(300)))
			}
			seq -= kv.Seq(versions)
		}
		slices.SortFunc(keys, kv.CompareInternal)

		fs := vfs.NewMemFS()
		name := fmt.Sprintf("%d.mst", round)
		tb := mustCreate(t, fs, name)
		if _, err := tb.Append(iterator.NewSlice(kv.CompareInternal, keys, vals)); err != nil {
			t.Fatal(err)
		}
		written := tb.SeqMetaAt(0)
		if err := tb.Sync(); err != nil {
			t.Fatal(err)
		}
		tb.Close()
		re, err := Open(fs, name, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		decoded := re.SeqMetaAt(0)
		re.Close()
		if len(written.idx.blocks) < 2 {
			t.Fatalf("round %d: %d blocks, the search has nothing to choose from", round, len(written.idx.blocks))
		}
		if shared && len(written.idx.prefix) < len(prefix) {
			t.Fatalf("round %d: shared prefix %q, want at least %q", round, written.idx.prefix, prefix)
		}
		if !written.idx.equal(&decoded.idx) {
			t.Fatalf("round %d: the decoded index differs from the one written", round)
		}

		r, err := block.NewReader(written.RawIndex, kv.CompareInternal)
		if err != nil {
			t.Fatal(err)
		}
		var seps [][]byte
		it := r.Iter()
		for it.First(); it.Valid(); it.Next() {
			seps = append(seps, slices.Clone(it.Key()))
		}
		// want is the position of the separator Seek lands on.
		want := func(target []byte) int {
			it.Seek(target)
			if !it.Valid() {
				return len(seps)
			}
			return slices.IndexFunc(seps, func(s []byte) bool { return bytes.Equal(s, it.Key()) })
		}

		probes := [][]byte{nil, {0x00}, {0xff, 0xff}, []byte(prefix[:len(prefix)-1]), []byte(prefix),
			append(slices.Clip(kv.UserKey(written.Largest)), 0xff)}
		for _, u := range users {
			probes = append(probes, u, append(slices.Clip(u), 0x00), append(slices.Clip(u), 0xff))
		}
		snaps := []kv.Seq{0, 1, seq + (top-seq)/2, top, kv.MaxSeq}
		targets := slices.Clone(seps)
		for _, u := range probes {
			for _, snap := range snaps {
				targets = append(targets, kv.MakeInternalKey(u, snap, kv.MaxKind))
			}
		}
		for _, target := range targets {
			w := want(target)
			for side, m := range map[string]*SeqMeta{"written": &written, "decoded": &decoded} {
				if got := m.idx.search(target); got != w {
					t.Fatalf("round %d: the %s index searches %s to block %d, the index block seeks to %d of %d",
						round, side, kv.InternalKeyString(target), got, w, len(seps))
				}
			}
		}
	}
}

// A metadata copy whose checksum holds but whose RawIndex does not decode
// is a detection when the table opens: the reopen falls back a
// generation and notes the finding as Suspect, naming the table, and with
// no older generation to fall back to Open fails with it.  Verify on a
// handle opened before the damage reports the lost commit.
func TestMalformedIndexIsDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	tb, gen := appended(t, fs, "1.mst", 2)
	defer tb.Close()
	newest := tb.SeqMetaAt(1)

	f, err := fs.Open("1.mst")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slotOff := tb.Capacity() - tailLen + int64(gen%2)*footerSlot
	var slot [footerSlot]byte
	if _, err := f.ReadAt(slot[:], slotOff); err != nil {
		t.Fatal(err)
	}
	foot, ok := parseFooter(slot[:])
	if !ok || foot.gen != gen {
		t.Fatalf("committed slot: %+v, %v", foot, ok)
	}
	meta := make([]byte, foot.metaLen)
	if _, err := f.ReadAt(meta, foot.metaOff); err != nil {
		t.Fatal(err)
	}
	// Claim more restart points than the index block holds, then make the
	// metadata checksum and the footer agree with the damage.
	at := bytes.Index(meta, newest.RawIndex)
	if at < 0 {
		t.Fatal("the newest sequence's index is not in the committed metadata")
	}
	binary.LittleEndian.PutUint32(meta[at+len(newest.RawIndex)-4:], 1<<20)
	binary.LittleEndian.PutUint32(slot[32:36], crc32.Checksum(meta, castagnoli))
	binary.LittleEndian.PutUint32(slot[44:48], crc32.Checksum(slot[:44], castagnoli))
	if _, err := f.WriteAt(meta, foot.metaOff); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(slot[:], slotOff); err != nil {
		t.Fatal(err)
	}

	isMetaFinding := func(err error) bool {
		var ce *corrupt.Error
		return errors.As(err, &ce) && ce.Layer == corrupt.LayerTableMeta && ce.Path == "1.mst" &&
			strings.Contains(ce.Detail, "malformed")
	}
	re, err := Open(fs, "1.mst", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !isMetaFinding(re.Suspect()) || re.NumSeqs() != 1 {
		t.Fatalf("reopen: suspect %v, %d seqs; want the malformed metadata noted and one sequence", re.Suspect(), re.NumSeqs())
	}
	if _, _, _, found, err := re.Get([]byte("k00-1"), kv.MaxSeq); found || err != nil {
		t.Fatalf("a key of the lost sequence: found %v, %v", found, err)
	}
	if _, _, _, found, err := re.Get([]byte("k00-0"), kv.MaxSeq); !found || err != nil {
		t.Fatalf("a key of the kept sequence: found %v, %v", found, err)
	}
	re.Close()
	var ce *corrupt.Error
	if _, err := tb.Verify(nil); !errors.As(err, &ce) || ce.Path != "1.mst" {
		t.Fatalf("Verify on the handle that held the damaged commit: %v", err)
	}

	// Without the older generation there is nothing to fall back to.
	other := tb.Capacity() - tailLen + int64((gen+1)%2)*footerSlot
	if _, err := f.WriteAt(make([]byte, footerSlot), other); err != nil {
		t.Fatal(err)
	}
	if re, err := Open(fs, "1.mst", 1, Options{}); !isMetaFinding(err) {
		if err == nil {
			re.Close()
		}
		t.Fatalf("reopen with no older generation: %v", err)
	}
}
