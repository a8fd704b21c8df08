package iamdb

import (
	"errors"
	"fmt"
	"testing"

	"iamdb/internal/vfs"
)

// TestCrossEngineOpenGrid writes a directory with each engine and opens
// it with every engine.  The substrate's loader never drops a table the
// manifest names, so either the data survives the foreign open, or Open
// refuses with ErrLayout before touching the manifest; both ways the
// engine that wrote the directory still reads everything afterwards.
func TestCrossEngineOpenGrid(t *testing.T) {
	const n = 600
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i*7919%n)) }
	val := func(i int) string { return fmt.Sprintf("value-%05d-%060d", i, i) }
	readAll := func(t *testing.T, db *DB, as string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, err := db.Get(key(i)); err != nil || string(v) != val(i) {
				t.Fatalf("%s: get %s = %q, %v", as, key(i), v, err)
			}
		}
		it := db.NewIterator()
		defer it.Close()
		seen := 0
		for it.First(); it.Valid(); it.Next() {
			seen++
		}
		if err := it.Err(); err != nil || seen != n {
			t.Fatalf("%s: scan saw %d of %d keys, err %v", as, seen, n, err)
		}
	}
	isTree := func(e EngineKind) bool { return e == IAM || e == LSA }
	// With the default trigger the baselines compact level 0 away as they
	// load; with a trigger they never reach, level 0 stays populated and a
	// tree has to refuse the directory.
	for _, l0Trigger := range []int{0, 64} {
		for _, writer := range allEngines {
			for _, opener := range allEngines {
				name := fmt.Sprintf("%v-as-%v/l0trigger=%d", writer, opener, l0Trigger)
				t.Run(name, func(t *testing.T) {
					fs := vfs.NewMemFS()
					opts := func(e EngineKind) *Options {
						o := smallOpts(e, fs)
						o.L0CompactTrigger = l0Trigger
						return o
					}
					db, err := Open("db", opts(writer))
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						if err := db.Put(key(i), []byte(val(i))); err != nil {
							t.Fatal(err)
						}
					}
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}

					switch db, err := Open("db", opts(opener)); {
					case err == nil:
						readAll(t, db, "opened as "+opener.String())
						if err := db.Close(); err != nil {
							t.Fatal(err)
						}
						if l0Trigger > 0 && !isTree(writer) && isTree(opener) {
							t.Fatalf("%v opened a directory with level-0 tables", opener)
						}
					case !errors.Is(err, ErrLayout):
						t.Fatalf("open as %v: %v, want success or ErrLayout", opener, err)
					}

					db, err = Open("db", opts(writer))
					if err != nil {
						t.Fatalf("reopen as %v after %v: %v", writer, opener, err)
					}
					defer db.Close()
					readAll(t, db, "reopened as "+writer.String())
				})
			}
		}
	}
}
