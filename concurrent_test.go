package iamdb

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"iamdb/internal/vfs"
)

// The hammer drives the whole commit pipeline at once — concurrent
// batch writers, snapshot readers, point-get readers and iterator
// walkers — and checks the invariants the lock-free design promises:
// the published sequence never moves backwards, multi-op batches are
// visible all-or-nothing, iterators stay sorted, and the group-committed
// WAL replays to the identical state on reopen.

const (
	hammerWriters = 4
	hammerIters   = 120
	hammerBatchK  = 4 // ops per batch; a torn batch shows mixed values
)

func hammerKey(w, slot int) []byte {
	return []byte(fmt.Sprintf("w%02d-slot%02d", w, slot))
}

func TestConcurrentCommitHammer(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			fs := vfs.NewMemFS()
			db, err := Open("db", smallOpts(e, fs))
			if err != nil {
				t.Fatal(err)
			}

			var (
				writeWG, readWG sync.WaitGroup
				done            atomic.Bool
				fail            = make(chan string, 16)
			)
			report := func(format string, args ...any) {
				select {
				case fail <- fmt.Sprintf(format, args...):
				default:
				}
			}

			// Writers: each commits batches that set all of its slots to
			// one per-iteration value, checking seq monotonicity after
			// every acknowledged commit.
			for w := 0; w < hammerWriters; w++ {
				writeWG.Add(1)
				go func(w int) {
					defer writeWG.Done()
					var lastSeq uint64
					b := new(Batch)
					for i := 0; i < hammerIters; i++ {
						b.Reset()
						val := []byte(fmt.Sprintf("w%02d-i%04d", w, i))
						for slot := 0; slot < hammerBatchK; slot++ {
							b.Put(hammerKey(w, slot), val)
						}
						if err := db.Write(b); err != nil {
							report("writer %d: %v", w, err)
							return
						}
						if s := uint64(db.seqr.Visible()); s < lastSeq {
							report("writer %d: published seq went backwards: %d < %d", w, s, lastSeq)
							return
						} else {
							lastSeq = s
						}
					}
				}(w)
			}

			// Snapshot readers: a consistent view must never show a torn
			// batch — every present slot of a writer carries one value.
			for r := 0; r < 2; r++ {
				readWG.Add(1)
				go func(r int) {
					defer readWG.Done()
					buf := make([]byte, 0, 64)
					for n := 0; !done.Load(); n++ {
						w := (r + n) % hammerWriters
						snap := db.GetSnapshot()
						var want []byte
						for slot := 0; slot < hammerBatchK; slot++ {
							v, err := snap.Get(hammerKey(w, slot))
							if err == ErrNotFound {
								if want != nil {
									report("torn batch: writer %d slot %d missing after seeing %q", w, slot, want)
								}
								continue
							}
							if err != nil {
								report("snapshot get: %v", err)
								break
							}
							if want == nil {
								want = v
							} else if !bytes.Equal(v, want) {
								report("torn batch: writer %d shows %q and %q in one snapshot", w, want, v)
							}
						}
						snap.Release()
						// Exercise the pooled lock-free point-get too.
						if v, err := db.GetInto(hammerKey(w, 0), buf[:0]); err == nil {
							buf = v
						} else if err != ErrNotFound {
							report("GetInto: %v", err)
						}
					}
				}(r)
			}

			// Iterator walkers: full scans must stay strictly sorted while
			// the memtable is mutated underneath them.
			readWG.Add(1)
			go func() {
				defer readWG.Done()
				prev := make([]byte, 0, 64)
				for !done.Load() {
					it := db.NewIterator()
					prev = prev[:0]
					for it.First(); it.Valid(); it.Next() {
						if len(prev) > 0 && bytes.Compare(prev, it.Key()) >= 0 {
							report("iterator out of order: %q then %q", prev, it.Key())
							break
						}
						prev = append(prev[:0], it.Key()...)
					}
					if err := it.Close(); err != nil {
						report("iterator: %v", err)
					}
				}
			}()

			writeWG.Wait()
			done.Store(true)
			readWG.Wait()
			select {
			case msg := <-fail:
				t.Fatal(msg)
			default:
			}

			// Accounting: every batch went through exactly one group.
			m := db.Metrics()
			if want := int64(hammerWriters * hammerIters); m.CommitBatches != want {
				t.Fatalf("CommitBatches = %d, want %d", m.CommitBatches, want)
			}
			if m.CommitGroups <= 0 || m.CommitGroups > m.CommitBatches {
				t.Fatalf("CommitGroups = %d out of range (batches %d)", m.CommitGroups, m.CommitBatches)
			}

			// The final state is deterministic (writers are sequential), so
			// reopening must replay the group-committed WAL to it exactly.
			want := make(map[string]string, hammerWriters*hammerBatchK)
			final := fmt.Sprintf("i%04d", hammerIters-1)
			for w := 0; w < hammerWriters; w++ {
				for slot := 0; slot < hammerBatchK; slot++ {
					want[string(hammerKey(w, slot))] = fmt.Sprintf("w%02d-%s", w, final)
				}
			}
			checkState := func(stage string) {
				for k, v := range want {
					got, err := db.Get([]byte(k))
					if err != nil || string(got) != v {
						t.Fatalf("%s: %s = %q, %v; want %q", stage, k, got, err, v)
					}
				}
			}
			checkState("before reopen")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open("db", smallOpts(e, fs))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkState("after reopen")
		})
	}
}

// TestConcurrentWriteClose races writers against Close: every Write must
// return either nil or ErrClosed, never hang or corrupt state.
func TestConcurrentWriteClose(t *testing.T) {
	fs := vfs.NewMemFS()
	db, err := Open("db", smallOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				err := db.Put(hammerKey(w, i%hammerBatchK), []byte("v"))
				if err != nil {
					if err != ErrClosed {
						t.Errorf("writer %d: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	close(start)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The store must reopen cleanly after the race.
	db, err = Open("db", smallOpts(IAM, fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
