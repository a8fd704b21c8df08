package iamdb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"iamdb/internal/vfs"
)

// These tests exercise the background-error engine: sticky faults on
// table files push the DB into read-only degradation, reads keep
// working, and once the fault clears the DB heals — automatically via
// the retrying workers, or explicitly via Resume — without reopening.

func openSticky(t *testing.T, e EngineKind, tweak func(*Options)) (*DB, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFaultFS(vfs.NewMemFS())
	opts := smallOpts(e, ffs)
	opts.BgRetryLimit = 3
	opts.BgBackoff = func(failures int) bool { return true } // retry hot, no sleep
	if tweak != nil {
		tweak(opts)
	}
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, ffs
}

// armTableFault makes every write to a table file fail until cleared.
// The WAL (.log) is untouched, so foreground appends keep succeeding
// and the failure is purely background.
func armTableFault(ffs *vfs.FaultFS) {
	ffs.SetSticky(true)
	ffs.FailAfterPath(vfs.FaultWrite, ".mst", 0)
}

// fillUntilError writes until the background failure surfaces on the
// write path, returning the error (nil if it never did).
func fillUntilError(t *testing.T, db *DB) error {
	t.Helper()
	for i := 0; i < 30000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("bg%07d", i)), make([]byte, 64)); err != nil {
			return err
		}
	}
	return nil
}

func TestStickyFaultDegradesToReadOnlyThenAutoHeals(t *testing.T) {
	var roEnter, roExit, bgEvents atomic.Int64
	db, ffs := openSticky(t, IAM, func(o *Options) {
		o.EventListener = &EventListener{
			BackgroundError: func(BackgroundErrorInfo) { bgEvents.Add(1) },
			ReadOnlyEnter:   func(ReadOnlyInfo) { roEnter.Add(1) },
			ReadOnlyExit:    func(ReadOnlyInfo) { roExit.Add(1) },
		}
	})
	defer db.Close()

	if err := db.Put([]byte("early"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	armTableFault(ffs)
	err := fillUntilError(t, db)
	if err == nil {
		t.Fatal("sticky table fault never surfaced on the write path")
	}
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("read-only error must carry the cause, got %v", err)
	}
	var bge *BackgroundError
	if !errors.As(err, &bge) {
		t.Fatalf("read-only error must wrap a *BackgroundError, got %v", err)
	}

	// Reads are still served while degraded.
	if v, gerr := db.Get([]byte("early")); gerr != nil || string(v) != "v" {
		t.Fatalf("read while degraded: %q, %v", v, gerr)
	}

	// Clear the fault: the retrying background workers must heal the
	// DB and accept writes again without a reopen.
	ffs.Clear()
	ffs.SetSticky(false)
	healed := false
	for i := 0; i < 200000 && !healed; i++ {
		healed = db.Put([]byte("after-heal"), []byte("v")) == nil
	}
	if !healed {
		t.Fatal("DB never healed after the fault cleared")
	}
	if v, gerr := db.Get([]byte("after-heal")); gerr != nil || string(v) != "v" {
		t.Fatalf("read after heal: %q, %v", v, gerr)
	}

	if bgEvents.Load() == 0 || roEnter.Load() == 0 || roExit.Load() == 0 {
		t.Errorf("events: background=%d enter=%d exit=%d, want all > 0",
			bgEvents.Load(), roEnter.Load(), roExit.Load())
	}
}

func TestResumeClearsReadOnly(t *testing.T) {
	// An abandoning backoff parks the workers after a few failures, so
	// healing is not automatic — Resume must do it.
	db, ffs := openSticky(t, LSA, func(o *Options) {
		o.BgBackoff = func(failures int) bool { return failures < 6 }
	})
	defer db.Close()

	armTableFault(ffs)
	err := fillUntilError(t, db)
	if err == nil {
		t.Fatal("sticky table fault never surfaced on the write path")
	}
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}

	ffs.Clear()
	ffs.SetSticky(false)
	if err := db.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := db.Put([]byte("post-resume"), []byte("v")); err != nil {
		t.Fatalf("put after resume: %v", err)
	}
	if v, err := db.Get([]byte("post-resume")); err != nil || string(v) != "v" {
		t.Fatalf("get after resume: %q, %v", v, err)
	}
}
