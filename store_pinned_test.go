package iamdb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"iamdb/internal/vfs"
)

// TestStoreBytesPinned is the oracle for changes to how the engines
// publish placement (tableset.Set.Apply): a seeded history of puts and
// deletes, a reopen in the middle and a CompactAll at the end must leave
// the MANIFEST (every edit, in order, byte for byte) and every table file
// exactly as the commit before Apply existed left them.  The hashes were
// computed there, with the engines still assembling each manifest.Edit by
// hand; a difference means a placement, a range, an edit's order or the
// file-counter rule changed.
func TestStoreBytesPinned(t *testing.T) {
	pinned := map[EngineKind][2]string{
		IAM: {"c3feb2cf6735162a2cc40e3c5b720c1f60495a87180c10bc971eac56ac39682e",
			"f5082c961eeb13a23f3baecfba72d32aa3df79d2aa0edca7e2f0fb745da12bda"},
		LSA: {"8721f995548f4a7aa737e090c0bb03e71be1f2d6b7630016181c00f885ceed21",
			"230b050063b8713423aec1cfdb3b79ab50b15cf3513e047dd80ba82d15191bf8"},
		LevelDB: {"440ab0b3a29a53be7974b59269196455180939b26b78cc061c4e8d3c2b25e63d",
			"92596e0e85e5ca9d8c66b155491133c72ef104b7feec939ccb499ded4bc1b8d3"},
		RocksDB: {"4605bff8896b1710bcdd747be47b86f3e1299e661378c8f76eddf3e478d96965",
			"c09e24f7282b8d95c32df0681b166d8bb24b957c11531f7a4217d58cbd4c14ab"},
	}
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			fs := vfs.NewMemFS()
			manifests, tables := sha256.New(), sha256.New()
			rng := rand.New(rand.NewSource(17))
			var seen struct{ appends, merges, moves, splits, combines int64 }
			for round := 0; round < 2; round++ {
				opts := smallOpts(e, fs)
				opts.InlineBackground = true
				db, err := Open("db", opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 20000; i++ {
					key := []byte(fmt.Sprintf("key-%06d", rng.Intn(12000)))
					if rng.Intn(5) == 0 {
						err = db.Delete(key)
					} else {
						err = db.Put(key, []byte(fmt.Sprintf("value-%d-%d-%032d", round, i, rng.Int63())))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if round == 1 {
					if err := db.CompactAll(); err != nil {
						t.Fatal(err)
					}
				}
				st := db.Metrics().Engine
				seen.appends += st.Appends
				seen.merges += st.Merges
				seen.moves += st.Moves
				seen.splits += st.Splits
				seen.combines += st.Combines
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				// The manifest holds the edits since this open; the tables
				// are hashed with their names, so a renumbering shows too.
				names, err := fs.List("db")
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(names)
				for _, name := range names {
					switch {
					case name == "MANIFEST":
						manifests.Write(storeFileBytes(t, fs, "db/"+name))
					case strings.HasSuffix(name, ".mst"):
						fmt.Fprintf(tables, "%s\n", name)
						tables.Write(storeFileBytes(t, fs, "db/"+name))
					}
				}
			}
			// A history that stopped exercising a kind of change would pin
			// nothing about it.
			tree := e == IAM || e == LSA
			if seen.merges == 0 || seen.moves == 0 || tree && (seen.appends == 0 || seen.splits == 0 || seen.combines == 0) {
				t.Fatalf("the history no longer reaches every structural operation: %+v", seen)
			}
			got := [2]string{fmt.Sprintf("%x", manifests.Sum(nil)), fmt.Sprintf("%x", tables.Sum(nil))}
			if got != pinned[e] {
				t.Errorf("MANIFEST, tables hash to\n\t%q,\n\t%q\npinned\n\t%q,\n\t%q", got[0], got[1], pinned[e][0], pinned[e][1])
			}
		})
	}
}

func storeFileBytes(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sz)
	if _, err := f.ReadAt(buf, 0); err != nil && sz > 0 {
		t.Fatal(err)
	}
	return buf
}
