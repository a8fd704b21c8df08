package iamdb

import (
	"bytes"
	"fmt"
	"path"
	"testing"
	"time"

	"iamdb/internal/vfs"
)

// drainGateFS hands every log removal to at before it happens.  The
// drain removes a log after it flushed the oldest memtable and recorded
// the next log number, while that memtable is still queued, so an at
// that blocks holds the drain there and the queue fills by construction.
type drainGateFS struct {
	vfs.FS
	at func(num uint64)
}

func (g *drainGateFS) Remove(name string) error {
	if nums := logNums([]string{path.Base(name)}); len(nums) == 1 {
		g.at(nums[0])
	}
	return g.FS.Remove(name)
}

// TestImmutableQueue holds each background drain on a hook: writers
// commit past one immutable memtable up to maxImmutable without a stall,
// the next full memtable waits and the wait is a counted stall, every
// read path sees every queued memtable, each drain records the next
// queued WAL as the log number, and a crash with the queue full reopens
// with every acknowledged write.
func TestImmutableQueue(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			crash := vfs.NewCrashFS(vfs.NewMemFS(), vfs.CrashDrop)
			var st *store
			arrived := make(chan uint64)
			release := make(chan struct{})
			gate := &drainGateFS{FS: crash, at: func(num uint64) {
				_, logNum := st.set.LogMeta()
				st.mu.Lock()
				head, next := st.imm[0].walNum, st.walNum
				if len(st.imm) > 1 {
					next = st.imm[1].walNum
				}
				st.mu.Unlock()
				if num != head || logNum != next {
					t.Errorf("drain of log %d (queue head %d) recorded log number %d, want the next WAL %d",
						num, head, logNum, next)
				}
				// After the crash the test closes release and stops listening.
				select {
				case arrived <- num:
					<-release
				case <-release:
				}
			}}
			stalled := make(chan struct{}, 1)
			opts := smallOpts(e, gate)
			opts.SyncWrites = true
			opts.EventListener = &EventListener{WriteStallBegin: func(StallInfo) {
				select {
				case stalled <- struct{}{}:
				default:
				}
			}}
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			st = db.stores[0]
			await := func(ch <-chan struct{}, what string) {
				t.Helper()
				select {
				case <-ch:
				case <-time.After(30 * time.Second):
					t.Fatalf("timed out waiting for %s", what)
				}
			}

			val := bytes.Repeat([]byte("v"), 500)
			var acked []string
			put := func() {
				t.Helper()
				key := fmt.Sprintf("key-%05d", len(acked))
				if err := db.Put([]byte(key), val); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, key)
			}
			for db.Metrics().ImmutableMemtables < maxImmutable {
				put()
			}
			for st.state.Load().mem.ApproximateSize() < opts.MemtableSize {
				put()
			}
			first := <-arrived
			if m := db.Metrics(); m.ImmutableMemtables != maxImmutable || m.StallCount != 0 {
				t.Fatalf("queue of %d memtables after %d stalls, want %d and none",
					m.ImmutableMemtables, m.StallCount, maxImmutable)
			}

			// The next write finds the memtable full and the queue full.
			done := make(chan error, 1)
			go func() { done <- db.Put([]byte("key-stalled"), val) }()
			await(stalled, "the write stall")
			select {
			case err := <-done:
				t.Fatalf("a write into a full queue returned (%v) with the drain held", err)
			default:
			}

			// Every record of every queued memtable is visible to each read path.
			snap := db.GetSnapshot()
			for _, k := range acked {
				if v, err := db.Get([]byte(k)); err != nil || !bytes.Equal(v, val) {
					t.Fatalf("Get(%s) = %d bytes, %v", k, len(v), err)
				}
				if v, err := db.GetInto([]byte(k), nil); err != nil || !bytes.Equal(v, val) {
					t.Fatalf("GetInto(%s) = %d bytes, %v", k, len(v), err)
				}
				if v, err := snap.Get([]byte(k)); err != nil || !bytes.Equal(v, val) {
					t.Fatalf("snapshot Get(%s) = %d bytes, %v", k, len(v), err)
				}
			}
			var scanned []string
			it := snap.NewIterator()
			for it.First(); it.Valid(); it.Next() {
				scanned = append(scanned, string(it.Key()))
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			snap.Release()
			if fmt.Sprint(scanned) != fmt.Sprint(acked) {
				t.Fatalf("iterator saw %d keys, want the %d written", len(scanned), len(acked))
			}

			// One drain makes room: the stalled write commits, and its
			// wait was a stall.  Two more drains each record the next WAL.
			release <- struct{}{}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			acked = append(acked, "key-stalled")
			if m := db.Metrics(); m.StallCount != 1 {
				t.Fatalf("stall count %d after one wait on the queue, want 1", m.StallCount)
			}
			for range 2 {
				if num := <-arrived; num <= first {
					t.Fatalf("drain of log %d after log %d", num, first)
				}
				release <- struct{}{}
			}
			<-arrived

			// Power loss with one drain held and the queue full of WALs.
			if n := db.Metrics().ImmutableMemtables; n < 2 {
				t.Fatalf("%d queued memtables at the crash, want several", n)
			}
			crash.Crash()
			close(release)
			_ = db.Close()
			crash.Recover()
			opts.FS, opts.EventListener = crash, nil
			db, err = Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, k := range acked {
				if v, err := db.Get([]byte(k)); err != nil || !bytes.Equal(v, val) {
					t.Fatalf("after the crash, Get(%s) = %d bytes, %v", k, len(v), err)
				}
			}
		})
	}
}
