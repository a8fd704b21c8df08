package iamdb

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"iamdb/internal/vfs"
)

func TestCheckpointAndOpenCopy(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open("db", smallOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	for i := 0; i < 3000; i++ {
		k, v := fmt.Sprintf("k%05d", i%2500), fmt.Sprintf("v%d", i)
		db.Put([]byte(k), []byte(v))
		ref[k] = v
	}
	if err := db.Checkpoint("backup"); err != nil {
		t.Fatal(err)
	}
	// Divergence after the checkpoint must not leak into the copy.
	db.Put([]byte("post-checkpoint"), []byte("x"))
	db.Delete([]byte("k00001"))

	cp, err := Open("backup", smallOpts(IAM, fs))
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	defer cp.Close()
	for k, v := range ref {
		got, err := cp.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("checkpoint %s = %q (%v) want %q", k, got, err, v)
		}
	}
	if _, err := cp.Get([]byte("post-checkpoint")); err != ErrNotFound {
		t.Fatal("post-checkpoint write leaked into the copy")
	}
	// Original still intact and diverged.
	if _, err := db.Get([]byte("k00001")); err != ErrNotFound {
		t.Fatal("original lost its post-checkpoint delete")
	}
	db.Close()
}

func TestCheckpointRefusesExistingDB(t *testing.T) {
	fs := vfs.NewMemFS()
	db, _ := Open("db", smallOpts(IAM, fs))
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	if err := db.Checkpoint("db2"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint("db2"); err == nil {
		t.Fatal("checkpoint over an existing database must fail")
	}
}

// TestCheckpointFailureLeavesNoManifest injects a fault at every
// destination-write index in turn and checks the commit protocol: a
// checkpoint that did not return success must never leave a MANIFEST
// at the destination, so a partial copy can never be opened as a valid
// database.
func TestCheckpointFailureLeavesNoManifest(t *testing.T) {
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem)
	db, err := Open("db", smallOpts(IAM, ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sawFailure := false
	for n := 0; ; n++ {
		dst := fmt.Sprintf("ckpt%03d", n)
		// Scope the fault to the destination so the live DB (whose own
		// background work shares the filesystem) is unaffected.
		ffs.FailAfterPath(vfs.FaultWrite, dst+"/", n)
		err := db.Checkpoint(dst)
		ffs.Clear()
		if err == nil {
			if !sawFailure {
				t.Fatal("fault never fired; test exercised nothing")
			}
			break // fault index walked past the last destination write
		}
		sawFailure = true
		// No MANIFEST means no reader can mistake the partial copy for
		// a database: Open on the directory would start from scratch
		// rather than trust half-copied state.
		if mem.Exists(dst + "/MANIFEST") {
			t.Fatalf("failed checkpoint (fault at write %d) left a MANIFEST", n)
		}
		if n > 10000 {
			t.Fatal("fault index never walked past the checkpoint's writes")
		}
	}

	// Sync faults on the manifest copy must also leave no MANIFEST.
	dst := "ckpt-sync"
	ffs.FailAfterPath(vfs.FaultSync, dst+"/MANIFEST", 0)
	if err := db.Checkpoint(dst); err == nil {
		t.Fatal("checkpoint with failing manifest sync must error")
	}
	ffs.Clear()
	if mem.Exists(dst + "/MANIFEST") {
		t.Fatal("failed manifest sync left a MANIFEST at the destination")
	}
}

// TestCheckpointRenameFailureLeavesNoManifest is the rename-specific
// regression: the final rename that publishes MANIFEST is the commit
// point, so a rename fault must leave the destination unopenable (no
// MANIFEST) and a retry after the fault clears must produce a complete,
// correct copy.
func TestCheckpointRenameFailureLeavesNoManifest(t *testing.T) {
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem)
	db, err := Open("db", smallOpts(IAM, ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ref := map[string]string{}
	for i := 0; i < 2000; i++ {
		k, v := fmt.Sprintf("k%05d", i%1500), fmt.Sprintf("v%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}

	ffs.FailAfterPath(vfs.FaultRename, "MANIFEST", 0)
	if err := db.Checkpoint("backup"); err == nil {
		t.Fatal("checkpoint with failing manifest rename must error")
	}
	if mem.Exists("backup/MANIFEST") {
		t.Fatal("failed rename left a MANIFEST at the destination")
	}
	if mem.Exists("backup/MANIFEST.ckpt") {
		t.Fatal("failed rename left the temporary manifest behind")
	}

	// Retry once the fault clears: the destination becomes a complete,
	// openable copy.
	ffs.Clear()
	if err := db.Checkpoint("backup"); err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	cp, err := Open("backup", smallOpts(IAM, mem))
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	defer cp.Close()
	for k, v := range ref {
		got, err := cp.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("checkpoint %s = %q (%v) want %q", k, got, err, v)
		}
	}
}

// TestCheckpointUnderWrites takes checkpoints beside live writers: every
// one must succeed, and every copy must open, scan clean and be one
// consistent cut.  Each writer cycles over a ring of keys storing its
// write counter, so a cut after m of its writes holds exactly the
// counters m-ring..m-1.
func TestCheckpointUnderWrites(t *testing.T) {
	const writers, checkpoints, ring = 2, 30, 500
	for _, e := range []EngineKind{LevelDB, IAM} {
		t.Run(e.String(), func(t *testing.T) {
			fs := vfs.NewMemFS()
			db, err := Open("db", smallOpts(e, fs))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for n := 0; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						k, v := fmt.Sprintf("w%d-%03d", w, n%ring), strconv.Itoa(n)
						if err := db.Put([]byte(k), []byte(v)); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			defer wg.Wait()
			defer close(stop)
			for c := 0; c < checkpoints; c++ {
				if err := db.Checkpoint("ckpt"); err != nil {
					t.Fatalf("checkpoint %d: %v", c, err)
				}
				cp, err := Open("ckpt", smallOpts(e, fs))
				if err != nil {
					t.Fatalf("open checkpoint %d: %v", c, err)
				}
				var count, lo, hi [writers]int
				it := cp.NewIterator()
				for it.First(); it.Valid(); it.Next() {
					var w, slot int
					if _, err := fmt.Sscanf(string(it.Key()), "w%d-%d", &w, &slot); err != nil {
						t.Fatalf("checkpoint %d: key %q: %v", c, it.Key(), err)
					}
					n, err := strconv.Atoi(string(it.Value()))
					if err != nil || n%ring != slot {
						t.Fatalf("checkpoint %d: %s = %q", c, it.Key(), it.Value())
					}
					if count[w] == 0 || n < lo[w] {
						lo[w] = n
					}
					hi[w] = max(hi[w], n)
					count[w]++
				}
				if err := it.Err(); err != nil {
					t.Fatalf("scan checkpoint %d: %v", c, err)
				}
				for w := range count {
					// Distinct slots, so count counters spanning count
					// values are consecutive; below a full ring they
					// start at 0.
					if count[w] > 0 && (hi[w]-lo[w] != count[w]-1 || count[w] < ring && lo[w] != 0) {
						t.Fatalf("checkpoint %d is not one cut of writer %d: %d counters in [%d, %d]",
							c, w, count[w], lo[w], hi[w])
					}
				}
				it.Close()
				if err := cp.Close(); err != nil {
					t.Fatalf("close checkpoint %d: %v", c, err)
				}
				names, err := fs.List("ckpt")
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					if err := fs.Remove("ckpt/" + name); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
