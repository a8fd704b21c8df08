package iamdb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"iamdb/internal/vfs"
)

// TestStepStreamPinned is the oracle for changes to how the engines report
// a structural step (engine.Reporter): TestStoreBytesPinned's history, on a
// modeled disk whose clock stamps every span and every event duration, must
// leave the event stream (every event, in order, with its payload), the
// JSON Lines trace export (every span: ID, parent, name, times, level,
// bytes, count, lineage) and the engine counters exactly as the commit
// before the reporter existed left them.  The hashes were computed there,
// with each of the eleven sites still writing its span, its counters and
// its event by hand; a difference means a span's name, parent, order or
// arguments, an event's payload or its place among the table and manifest
// events, a clock reading, or a counter's attribution changed.
func TestStepStreamPinned(t *testing.T) {
	pinned := map[EngineKind][3]string{
		IAM: {"9472aecfbf724192948756c733f19206cbffb31ffb7fde88e4a2dee5f3836635",
			"399cd7e0263744beebf9d2e981037c2715838c4d32cbfef5131e6e364a5c482d",
			"22475e6e12abfd0c501eeb0c2e10a9f9f7ff4d3bdb2a86eb70c29540fe455c77"},
		LSA: {"2fd4bc37777c8fabf71d0e74d456b5fb1c82e83fab5a376b6e7714210d31c7bc",
			"1923b6b2f6f7e35bed85d81855510c811de1843e997fb7fb999928613763dd5e",
			"44ae8a305d04ad90cb1e7786b90e2315d2d37da2a3171a8ebd3890d7f749ba03"},
		LevelDB: {"a553e1ca94ee9dfa86861d72eec65ced1b246e5648161ebca23f1c5dfcbdc703",
			"c1a268a9fcb0d0b28749182dd189fcb6b9daa9f6cc403b932cfb1a0b94b6a655",
			"b5109fcd85c03a02abcde2d74f5055f2dcb0f5e04817ad15841e9acbfe5570ae"},
		RocksDB: {"729d1be739e6e2300104ae4305bc369eebd8eee36881f88eb81dc90522b7954e",
			"1b95e52f0d0f29c8c772cddee2587b7600880a1853df24f031215eb696e7d542",
			"b0e55e206f76a2deb8522d3d7febed9df6fd0c6fefc8925c51bab0cd70da006b"},
	}
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			clock := new(vfs.DiskClock)
			fs := vfs.NewDisk(vfs.NewMemFS(), vfs.SSDProfile(), clock)
			events, spans, counters := sha256.New(), sha256.New(), sha256.New()
			rng := rand.New(rand.NewSource(17))
			for round := 0; round < 2; round++ {
				opts := smallOpts(e, fs)
				opts.InlineBackground = true
				opts.Clock = clock
				opts.Trace = NewTraceRecorder(1<<18, clock)
				opts.EventListener = NewLoggingListener(func(format string, args ...any) {
					fmt.Fprintf(events, format+"\n", args...)
				})
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
				fmt.Fprintf(counters, "%+v\n", db.Metrics().Engine)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if n := opts.Trace.Dropped(); n != 0 {
					t.Fatalf("the ring overwrote %d spans; size it to the run", n)
				}
				if err := opts.Trace.WriteJSONLines(spans); err != nil {
					t.Fatal(err)
				}
			}
			got := [3]string{fmt.Sprintf("%x", events.Sum(nil)), fmt.Sprintf("%x", spans.Sum(nil)), fmt.Sprintf("%x", counters.Sum(nil))}
			if got != pinned[e] {
				t.Errorf("events, spans, counters hash to\n\t%q,\n\t%q,\n\t%q\npinned\n\t%q,\n\t%q,\n\t%q",
					got[0], got[1], got[2], pinned[e][0], pinned[e][1], pinned[e][2])
			}
		})
	}
}
