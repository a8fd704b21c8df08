package iamdb

import (
	"errors"
	"fmt"
	"testing"

	"iamdb/internal/vfs"
)

// Disk-full degradation contract: when the device runs out of space the
// DB degrades to read-only instead of wedging or corrupting state —
// reads and snapshots keep working, the nospace counter records the
// hits, and once space frees the store heals (automatically on the next
// successful WAL append, or explicitly via Resume) without a reopen.

func openNoSpace(t *testing.T, e EngineKind) (*DB, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFaultFS(vfs.NewMemFS())
	opt := smallOpts(e, ffs)
	opt.InlineBackground = true
	opt.BgRetryLimit = 1
	opt.BgBackoff = func(failures int) bool { return failures < 3 }
	db, err := Open("db", opt)
	if err != nil {
		t.Fatal(err)
	}
	return db, ffs
}

func TestNoSpaceWALDegradesToReadOnly(t *testing.T) {
	for _, e := range []EngineKind{IAM, LevelDB} {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			db, ffs := openNoSpace(t, e)
			defer db.Close()
			if err := db.Put([]byte("k0"), []byte("v0")); err != nil {
				t.Fatal(err)
			}
			ffs.FailWithNoSpace(0)
			var roErr error
			for i := 0; i < 10; i++ {
				err := db.Put([]byte(fmt.Sprintf("x%d", i)), []byte("v"))
				if err == nil {
					t.Fatal("put succeeded with the device full")
				}
				if errors.Is(err, ErrReadOnly) {
					roErr = err
					break
				}
				if !errors.Is(err, vfs.ErrNoSpace) {
					t.Fatalf("pre-degradation put: want ErrNoSpace, got %v", err)
				}
			}
			if roErr == nil {
				t.Fatal("repeated no-space failures never degraded to read-only")
			}
			if !errors.Is(roErr, vfs.ErrNoSpace) {
				t.Fatalf("read-only error does not carry its cause: %v", roErr)
			}

			// Reads and snapshots are still served while degraded.
			if v, err := db.Get([]byte("k0")); err != nil || string(v) != "v0" {
				t.Fatalf("read while degraded: %q %v", v, err)
			}
			s := db.GetSnapshot()
			if v, err := s.Get([]byte("k0")); err != nil || string(v) != "v0" {
				t.Fatalf("snapshot read while degraded: %q %v", v, err)
			}
			s.Release()
			if n := db.Metrics().NoSpaceErrors; n == 0 {
				t.Fatal("NoSpaceErrors counter never moved")
			}

			// Free space and heal in place — no reopen.
			ffs.FreeSpace()
			if err := db.Resume(); err != nil {
				t.Fatalf("resume after freeing space: %v", err)
			}
			if err := db.Put([]byte("healed"), []byte("v")); err != nil {
				t.Fatalf("put after heal: %v", err)
			}
			if v, err := db.Get([]byte("healed")); err != nil || string(v) != "v" {
				t.Fatalf("get after heal: %q %v", v, err)
			}
		})
	}
}

func TestNoSpaceWALAutoHeals(t *testing.T) {
	db, ffs := openNoSpace(t, IAM)
	defer db.Close()
	if err := db.Put([]byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// One failure stays under BgRetryLimit, so the store is degraded but
	// not read-only; the next successful append must clear the latched
	// background error with no Resume call.
	ffs.FailWithNoSpace(0)
	if err := db.Put([]byte("x"), []byte("v")); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	ffs.FreeSpace()
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatalf("put after space freed: %v", err)
	}
	st := db.stores[0]
	st.mu.Lock()
	ro, bgErr := st.readonly, st.bgErr
	st.mu.Unlock()
	if ro || bgErr != nil {
		t.Fatalf("successful append did not auto-heal: readonly=%v bgErr=%v", ro, bgErr)
	}
}

func TestNoSpaceFlushDegradesAndResumes(t *testing.T) {
	for _, e := range []EngineKind{IAM, RocksDB} {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			db, ffs := openNoSpace(t, e)
			defer db.Close()
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("k%03d", i)
				if err := db.Put([]byte(k), make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
			}
			// The WAL is already durable; only the flush (table + manifest
			// writes) needs space now.
			ffs.FailWithNoSpace(0)
			var roErr error
			for i := 0; i < 10; i++ {
				err := db.Flush()
				if err == nil {
					t.Fatal("flush succeeded with the device full")
				}
				if errors.Is(err, ErrReadOnly) {
					roErr = err
					break
				}
			}
			if roErr == nil {
				t.Fatal("repeated flush failures never degraded to read-only")
			}
			if v, err := db.Get([]byte("k003")); err != nil || len(v) != 64 {
				t.Fatalf("read while degraded: %d bytes, %v", len(v), err)
			}
			if n := db.Metrics().NoSpaceErrors; n == 0 {
				t.Fatal("NoSpaceErrors counter never moved")
			}

			ffs.FreeSpace()
			if err := db.Resume(); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("flush after heal: %v", err)
			}
			if err := db.Put([]byte("healed"), []byte("v")); err != nil {
				t.Fatalf("put after heal: %v", err)
			}
		})
	}
}
