package iamdb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"iamdb/internal/vfs"
)

// scribble overwrites the whole backing array of b, so a store that kept
// a reference to a caller's buffer reads garbage.
func scribble(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xA5
	}
}

// callerModel is what the store must hold after writes whose buffers
// were scribbled on return: the last value of each key, nil for deleted.
type callerModel map[string][]byte

// putFrom writes key → value through the reused buffers kb and vb,
// scribbles both once the write returned and records the original bytes
// in m.
func (m callerModel) putFrom(db *DB, kb, vb *[]byte, key string, vlen int, fill byte) error {
	*kb = append((*kb)[:0], key...)
	*vb = append((*vb)[:0], bytes.Repeat([]byte{fill}, vlen)...)
	want := bytes.Clone(*vb)
	if err := db.Put(*kb, *vb); err != nil {
		return err
	}
	scribble(*kb)
	scribble(*vb)
	m[key] = want
	return nil
}

// deleteFrom deletes key through the reused buffer kb and scribbles it.
func (m callerModel) deleteFrom(t *testing.T, db *DB, kb *[]byte, key string) {
	t.Helper()
	*kb = append((*kb)[:0], key...)
	if err := db.Delete(*kb); err != nil {
		t.Fatal(err)
	}
	scribble(*kb)
	m[key] = nil
}

// check compares every read path of db against m: Get for each key and
// one full forward scan.
func (m callerModel) check(t *testing.T, db *DB, when string) {
	t.Helper()
	var live []string
	for k, want := range m {
		got, err := db.Get([]byte(k))
		if want == nil {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: Get(%q) of a deleted key = %d bytes, %v", when, k, len(got), err)
			}
			continue
		}
		live = append(live, k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%q) = %q…, %v; want %d bytes of %q", when, k, head(got), err, len(want), want[:1])
		}
	}
	it := db.NewIterator()
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		want, ok := m[string(it.Key())]
		if !ok || want == nil || !bytes.Equal(it.Value(), want) {
			t.Fatalf("%s: iterator yields %q = %q…, not a live key of the model", when, it.Key(), head(it.Value()))
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(live) {
		t.Fatalf("%s: iterator yields %d keys, want %d", when, n, len(live))
	}
}

func head(b []byte) []byte { return b[:min(len(b), 8)] }

// callerKey spreads keys over both halves of the byte range, so a
// two-shard store's default split (one byte at 128) sends writes to both.
func callerKey(w, i int) string {
	return fmt.Sprintf("%c%d-key-%04d", []byte{0x20, 0xC0}[i%2], w, i)
}

// TestStoreKeepsNoCallerBytes checks that Put and Delete, which commit
// the caller's slices uncopied, leave the store holding none of them: a
// caller that overwrites its key and value buffers as soon as each call
// returns still reads every original byte back through Get, an iterator,
// a reopen that replays the WAL, and a reopen after a crash cut right
// after the last write returned.  It runs on every engine, inline and
// with values separated, on one and on two shards; two writers that each
// reuse one pair of buffers commit through shared groups; and a buffer
// changed between Batch.Put and Write leaves the record as it was.
func TestStoreKeepsNoCallerBytes(t *testing.T) {
	for _, e := range allEngines {
		for _, threshold := range []int{0, 64} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/threshold=%d/shards=%d", e, threshold, shards), func(t *testing.T) {
					crash := vfs.NewCrashFS(vfs.NewMemFS(), vfs.CrashDrop)
					opts := smallOpts(e, crash)
					opts.SyncWrites = true
					opts.Shards = shards
					opts.ValueThreshold = threshold
					db, err := Open("db", opts)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = db.Close() }()
					m := callerModel{}
					var kb, vb []byte
					write := func(from, to int) {
						t.Helper()
						for i := from; i < to; i++ {
							if i%5 == 4 {
								m.deleteFrom(t, db, &kb, callerKey(0, (i-3)%40))
								continue
							}
							if err := m.putFrom(db, &kb, &vb, callerKey(0, i%40), 16+(i*37)%200, byte('a'+i%26)); err != nil {
								t.Fatal(err)
							}
						}
					}
					write(0, 300) // several memtables: some records reach the trees
					m.check(t, db, "live")

					// Two writers, each reusing its own buffers.
					var wg sync.WaitGroup
					models := []callerModel{{}, {}}
					for w := range models {
						wg.Add(1)
						go func() {
							defer wg.Done()
							var kb, vb []byte
							for i := range 100 {
								if err := models[w].putFrom(db, &kb, &vb, callerKey(w+1, i), 16+(i*53)%200, byte('A'+w)); err != nil {
									t.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
					if t.Failed() {
						return
					}
					for _, wm := range models {
						for k, v := range wm {
							m[k] = v
						}
					}
					m.check(t, db, "two writers")

					// A batch copies: the buffers change between Batch.Put and Write.
					var b Batch
					kb = append(kb[:0], "\x20batch-key"...)
					vb = append(vb[:0], "batch-value"...)
					b.Put(kb, vb)
					scribble(kb)
					scribble(vb)
					if err := db.Write(&b); err != nil {
						t.Fatal(err)
					}
					m["\x20batch-key"] = []byte("batch-value")
					m.check(t, db, "batch")

					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open("db", opts); err != nil {
						t.Fatal(err)
					}
					m.check(t, db, "after reopen")

					// Power loss right after the last write returned.
					write(300, 400)
					crash.Crash()
					_ = db.Close()
					crash.Recover()
					if db, err = Open("db", opts); err != nil {
						t.Fatal(err)
					}
					m.check(t, db, "after crash")
				})
			}
		}
	}
}
