package iamdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iamdb/internal/invariants"
	"iamdb/internal/metrics"
	"iamdb/internal/vfs"
)

// goldenRun executes one fully deterministic workload — virtual disk
// clock, inline background work, tracing on — and returns every
// observable export: the metrics report, the timeline JSON, and both
// trace wire forms.
func goldenRun(t *testing.T, e EngineKind) (report, timeline, jsonl, chrome string) {
	t.Helper()
	clock := new(vfs.DiskClock)
	disk := vfs.NewDisk(vfs.NewMemFS(), vfs.SSDProfile(), clock)
	io := new(vfs.IOStats)
	opts := smallOpts(e, vfs.NewStatsFS(disk, io))
	opts.Clock = clock
	opts.Trace = NewTraceRecorder(8192, clock)
	opts.InlineBackground = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sampler := db.NewSampler(200*time.Microsecond, 64)

	val := make([]byte, 100)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < 400; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i*7919%1000))
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		}
		if i%17 == 0 {
			if err := db.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
		sampler.Poll()
	}

	sampler.Poll()
	tl, err := json.Marshal(sampler.Points())
	if err != nil {
		t.Fatal(err)
	}
	var jb, cb strings.Builder
	if err := db.Trace().WriteJSONLines(&jb); err != nil {
		t.Fatal(err)
	}
	if err := db.Trace().WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	return db.Metrics().String(), string(tl), jb.String(), cb.String()
}

// TestGoldenDeterminism is the reproducibility gate: two identical
// virtual-clock runs with inline background work must export
// byte-identical metrics reports, timelines and traces.  Any ambient
// time, map-order or scheduling leak into the observability layer
// breaks this test.
func TestGoldenDeterminism(t *testing.T) {
	for _, e := range []EngineKind{IAM, LSA, LevelDB, RocksDB} {
		t.Run(e.String(), func(t *testing.T) {
			rep1, tl1, jl1, ch1 := goldenRun(t, e)
			rep2, tl2, jl2, ch2 := goldenRun(t, e)
			if rep1 != rep2 {
				t.Errorf("metrics reports differ between identical runs:\n--- run1\n%s\n--- run2\n%s", rep1, rep2)
			}
			if tl1 != tl2 {
				t.Errorf("timelines differ between identical runs")
			}
			if jl1 != jl2 {
				t.Errorf("JSONL trace exports differ between identical runs")
			}
			if ch1 != ch2 {
				t.Errorf("chrome trace exports differ between identical runs")
			}
			// The exports must also be non-trivial, or the test proves
			// nothing.
			if !strings.Contains(jl1, "commit.group") {
				t.Error("trace export has no commit.group spans")
			}
			var pts []TimelinePoint
			if err := json.Unmarshal([]byte(tl1), &pts); err != nil || len(pts) == 0 {
				t.Errorf("timeline export empty or invalid: %v", err)
			}
		})
	}
}

// TestTraceSpansPresent is the instrumentation smoke test: after a
// workload that flushes and compacts, the recorder holds the commit
// pipeline spans, the flush cascade, and engine jobs carrying file
// lineage and level tags.
func TestTraceSpansPresent(t *testing.T) {
	engineSpans := map[EngineKind][]string{
		IAM:     {"core.flush", "core.flushnode"},
		LevelDB: {"lsm.flush"},
	}
	for e, wantEngine := range engineSpans {
		t.Run(e.String(), func(t *testing.T) {
			opts := smallOpts(e, vfs.NewMemFS())
			opts.Clock = new(metrics.ManualClock)
			opts.Trace = NewTraceRecorder(8192, opts.Clock)
			opts.InlineBackground = true
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			val := make([]byte, 200)
			for i := 0; i < 400; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
					t.Fatal(err)
				}
			}
			byName := map[string][]TraceSpan{}
			for _, sp := range db.Trace().Snapshot() {
				byName[sp.Name] = append(byName[sp.Name], sp)
			}
			for _, want := range append([]string{"commit.group", "commit.wal", "commit.apply", "wal.rotate"}, wantEngine...) {
				if len(byName[want]) == 0 {
					keys := make([]string, 0, len(byName))
					for k := range byName {
						keys = append(keys, k)
					}
					t.Fatalf("no %q spans recorded; have %v", want, keys)
				}
			}
			// Commit children parent correctly.
			groups := map[uint64]bool{}
			for _, sp := range byName["commit.group"] {
				groups[sp.ID] = true
			}
			for _, name := range []string{"commit.wal", "commit.apply"} {
				for _, sp := range byName[name] {
					if !groups[sp.Parent] {
						t.Errorf("%s span %d parented to %d, not a commit.group", name, sp.ID, sp.Parent)
					}
				}
			}
			// Engine jobs produced output files (lineage recorded on the
			// per-job spans: appends/merges/splits for core, flushes and
			// compactions for lsm).
			var sawOut bool
			for _, name := range []string{
				"core.append", "core.merge", "core.split", "core.move",
				"lsm.flush", "lsm.compact", "lsm.move",
			} {
				for _, sp := range byName[name] {
					if len(sp.Out) > 0 {
						sawOut = true
					}
				}
			}
			if !sawOut {
				t.Errorf("no engine span carries output-file lineage")
			}
		})
	}
}

// TestDebugHandlers exercises every introspection endpoint through the
// mountable handler, without a real listener.
func TestDebugHandlers(t *testing.T) {
	opts := smallOpts(IAM, vfs.NewMemFS())
	clock := new(metrics.ManualClock)
	opts.Clock = clock
	opts.Trace = NewTraceRecorder(0, clock)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sampler := db.NewSampler(time.Millisecond, 0)
	val := make([]byte, 200)
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
		clock.Advance(50 * time.Microsecond)
	}

	h := db.DebugHandler(sampler)
	get := func(path string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d body %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "Level |") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body := get("/metrics?format=json")
	if code != 200 {
		t.Fatalf("/metrics?format=json: code %d", code)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Errorf("/metrics?format=json not valid JSON: %v", err)
	}
	code, body = get("/timeline")
	if code != 200 {
		t.Fatalf("/timeline: code %d", code)
	}
	var pts []TimelinePoint
	if err := json.Unmarshal([]byte(body), &pts); err != nil {
		t.Errorf("/timeline not valid JSON: %v", err)
	}
	if len(pts) == 0 {
		t.Error("/timeline empty after 15ms of clocked workload")
	}
	if code, body := get("/traces"); code != 200 || !strings.Contains(body, `"name":"commit.group"`) {
		t.Errorf("/traces: code %d, missing commit.group in %q", code, body[:min(len(body), 200)])
	}
	code, body = get("/traces?format=chrome")
	if code != 200 {
		t.Fatalf("/traces?format=chrome: code %d", code)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil || len(events) == 0 {
		t.Errorf("chrome trace invalid (%v) or empty", err)
	}
	if code, body := get("/levels"); code != 200 || !strings.Contains(body, "memtable") {
		t.Errorf("/levels: code %d body %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, _ := get("/nosuch"); code != 404 {
		t.Errorf("/nosuch: code %d, want 404", code)
	}
}

// TestDebugTracesDisabled pins the no-recorder contract: /traces is a
// 404 with a hint, everything else still serves.
func TestDebugTracesDisabled(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	rec := httptest.NewRecorder()
	db.DebugHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "Options.Trace") {
		t.Errorf("/traces without recorder: code %d body %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	db.DebugHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/timeline", nil))
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("/timeline without sampler: code %d body %q", rec.Code, rec.Body.String())
	}
}

// TestObservabilityHotPathZeroAlloc is the disabled-path gate of the
// acceptance criteria: with tracing off, attaching a (detached, never
// crossing a boundary) sampler must leave Put/Get allocations exactly
// where they were without one.
func TestObservabilityHotPathZeroAlloc(t *testing.T) {
	measure := func(withSampler bool) (get, put float64) {
		opts := smallOpts(IAM, vfs.NewMemFS())
		opts.MemtableSize = 64 << 20 // no flushes during measurement
		opts.Clock = new(metrics.ManualClock)
		db, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var s *Sampler // nil-safe: the bare run polls nothing
		if withSampler {
			s = db.NewSampler(time.Hour, 0)
		}
		if db.Trace() != nil {
			t.Fatal("trace recorder unexpectedly attached")
		}
		key, val := []byte("key-000042"), make([]byte, 64)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		get = testing.AllocsPerRun(500, func() {
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
		})
		put = testing.AllocsPerRun(500, func() {
			if err := db.Put(key, val); err != nil {
				t.Fatal(err)
			}
			s.Poll() // the idle sampler: atomic load + fast path
			s.Points()
		})
		return get, put
	}
	bareGet, barePut := measure(false)
	samGet, samPut := measure(true)
	if bareGet != samGet {
		t.Errorf("Get allocs differ: bare %.2f, detached sampler %.2f", bareGet, samGet)
	}
	if barePut != samPut {
		t.Errorf("Put allocs differ: bare %.2f, detached sampler %.2f", barePut, samPut)
	}
}

// TestCommitPathAllocs pins what the commit path allocates.  A Put or
// Delete into an inline IAM store whose memtable does not fill copies
// the caller's bytes into the WAL record and the memtable arena and
// allocates nothing of its own: no batch, no commit seat, no group
// queue, no checksum temporary.  AllocsPerRun counts whole allocations
// per call, so the arena chunks and file growth, spread over many
// writes, round away.
func TestCommitPathAllocs(t *testing.T) {
	if raceEnabled || invariants.Enabled {
		t.Skip("sync.Pool drops what is put back under -race; assertions box their arguments under the tag")
	}
	opts := smallOpts(IAM, vfs.NewMemFS())
	opts.MemtableSize = 64 << 20 // no rotation during measurement
	opts.InlineBackground = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key, val := []byte("key-000042"), make([]byte, 1024)
	put := func() {
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 {
		put()
	}
	if n := testing.AllocsPerRun(1000, put); n != 0 {
		t.Errorf("Put of a 1 KiB value allocates %.2f per call, want 0", n)
	}
	del := func() {
		if err := db.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, del); n != 0 {
		t.Errorf("Delete allocates %.2f per call, want 0", n)
	}
}

// TestConcurrentTraceHammer runs writers, readers and trace exporters
// against one recorder while flushes and compactions are in flight —
// the data-race gate for the whole observability layer (check.sh runs
// it under -race).
func TestConcurrentTraceHammer(t *testing.T) {
	opts := smallOpts(IAM, vfs.NewMemFS())
	opts.Trace = NewTraceRecorder(1024, nil)
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sampler := db.NewSampler(time.Microsecond, 0)

	const writers, readers, ops = 4, 2, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, 150)
			for i := 0; i < ops; i++ {
				key := []byte(fmt.Sprintf("w%d-key-%06d", w, i))
				if err := db.Put(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := []byte(fmt.Sprintf("w%d-key-%06d", r%writers, i))
				if _, err := db.Get(key); err != nil && err != ErrNotFound {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(r)
	}
	// Exporters and pollers race the recorder ring and sampler while
	// the workload churns; a separate join so the exporter can be told
	// to stop after the workload drains.
	exporterDone := make(chan struct{})
	go func() {
		defer close(exporterDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = db.Trace().WriteJSONLines(io.Discard)
			_ = db.Trace().WriteChromeTrace(io.Discard)
			sampler.Poll()
			sampler.Points()
			db.Trace().Len()
			db.Trace().Dropped()
		}
	}()
	wg.Wait()
	close(stop)
	<-exporterDone
	if db.Trace().Len() == 0 {
		t.Error("hammer recorded no spans")
	}
}
