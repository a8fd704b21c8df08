package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"iamdb"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
)

// spanKind names the benchmark's own spans: one around every call into
// the DB.  A scan's parts are children of its db.scan span.
type spanKind uint8

const (
	spanPut spanKind = iota
	spanGet
	spanScan
	spanIterOpen
	spanSeek
	spanNext
	spanIterClose
	spanFlush
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"db.put", "db.get", "db.scan", "db.iter_open", "db.seek", "db.next", "db.iter_close", "db.flush",
}

// topLevel reports whether the span is a whole operation rather than a
// part of a scan.
func (k spanKind) topLevel() bool {
	return k == spanPut || k == spanGet || k == spanScan || k == spanFlush
}

// span is one completed benchmark span; op is the client's operation
// number, shared by the spans of one request.
type span struct {
	kind       spanKind
	op         int64
	start, end time.Duration
}

// spansPerSecond sizes the store's span ring so it holds a whole timed
// phase: four spans per Put at several times today's Put rate.
const spansPerSecond = 500_000

// tracer is everything a traced run attaches to the store: one wall
// clock shared by the store's latency histograms, its span recorder and
// the benchmark's own spans, and a listener summing event durations.
// A nil *tracer is an untraced run: every method is a no-op.
type tracer struct {
	clock iamdb.Clock
	rec   *iamdb.TraceRecorder
	mem   *vfs.MemFS // the device of the traced store, for heap accounting

	flushes, flushNs, flushMaxNs atomic.Int64
	merges, mergeNs              atomic.Int64
	appends, moves               atomic.Int64
	splits, combines             atomic.Int64
	stalls, stallNs              atomic.Int64
	walRotations, manifestEdits  atomic.Int64

	cpu0, cpu1   time.Duration
	mem0, mem1   runtime.MemStats
	heapPeak     int64
	nextHeapLook time.Duration
}

func newTracer(seconds float64) *tracer {
	clock := iamdb.NewWallClock()
	capacity := int(seconds*spansPerSecond) + 1<<16
	return &tracer{clock: clock, rec: iamdb.NewTraceRecorder(capacity, clock)}
}

func (t *tracer) listener() *iamdb.EventListener {
	return &iamdb.EventListener{
		FlushEnd: func(i iamdb.FlushInfo) {
			t.flushes.Add(1)
			t.flushNs.Add(int64(i.Duration))
			for {
				old := t.flushMaxNs.Load()
				if int64(i.Duration) <= old || t.flushMaxNs.CompareAndSwap(old, int64(i.Duration)) {
					break
				}
			}
		},
		MergeEnd: func(i iamdb.MergeInfo) {
			t.merges.Add(1)
			t.mergeNs.Add(int64(i.Duration))
		},
		AppendEnd:    func(iamdb.AppendInfo) { t.appends.Add(1) },
		MoveEnd:      func(iamdb.MoveInfo) { t.moves.Add(1) },
		SplitEnd:     func(iamdb.SplitInfo) { t.splits.Add(1) },
		CombineEnd:   func(iamdb.CombineInfo) { t.combines.Add(1) },
		WALRotated:   func(iamdb.WALRotationInfo) { t.walRotations.Add(1) },
		ManifestEdit: func(iamdb.ManifestEditInfo) { t.manifestEdits.Add(1) },
		WriteStallEnd: func(i iamdb.StallInfo) {
			t.stalls.Add(1)
			t.stallNs.Add(int64(i.Duration))
		},
	}
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

func (t *tracer) span(c *client, k spanKind, start time.Duration) {
	if t == nil {
		return
	}
	c.spans = append(c.spans, span{kind: k, op: c.done, start: start, end: t.clock.Now()})
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (t *tracer) phaseBegin() {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.mem0)
	t.cpu0 = cpuTime()
}

func (t *tracer) phaseEnd() {
	if t == nil {
		return
	}
	t.cpu1 = cpuTime()
	runtime.ReadMemStats(&t.mem1)
	t.lookAtHeap(&t.mem1)
}

// sampleHeap records the peak heap outside the in-memory device, seen
// from client 0 about twenty times a second.
func (t *tracer) sampleHeap(c *client) {
	if t == nil || c.id != 0 {
		return
	}
	now := t.clock.Now()
	if now < t.nextHeapLook {
		return
	}
	t.nextHeapLook = now + 50*time.Millisecond
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.lookAtHeap(&ms)
}

func (t *tracer) lookAtHeap(ms *runtime.MemStats) {
	if heap := int64(ms.HeapAlloc) - t.mem.AllocatedBytes(); heap > t.heapPeak {
		t.heapPeak = heap
	}
}

// runTraced measures one workload twice from the same set-up image,
// first untraced, then with the tracer attached, each for half the
// run's seconds, and reports the per-layer metrics of the second phase,
// the difference in throughput as the tracing overhead, and the layer
// drives.
func runTraced(full *config) (*outcome, error) {
	half := *full
	half.seconds /= 2
	cfg := &half
	o := &outcome{}
	base, err := prepare(cfg, nil)
	if err != nil {
		return nil, err
	}
	basePhase, _, err := o.run(base)
	if err != nil {
		return nil, err
	}
	base = nil
	runtime.GC()

	tr := newTracer(cfg.seconds)
	p, err := prepare(cfg, tr)
	if err != nil {
		return nil, err
	}
	ph, f, err := o.run(p)
	if err != nil {
		return nil, err
	}
	o.ops, o.samples, o.rebuilds = ph.ops, len(ph.lat), p.rebuilds
	o.values = perLayer(p, ph, f, basePhase.opsS)
	if cfg.out != "" {
		if err := writeSpans(cfg, p); err != nil {
			return nil, err
		}
	}
	p = nil
	runtime.GC()
	if err := runDrives(full, o.values); err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durations digests the spans of one kind.
type durations struct {
	n     int
	total time.Duration
	all   []int64 // sorted, ns
}

func (d *durations) meanUs() float64 { return ratio(float64(d.total)/1e3, float64(d.n)) }

func (d *durations) quantileUs(q float64) float64 { return float64(quantile(d.all, q)) / 1e3 }

func (d *durations) maxUs() float64 { return d.quantileUs(1) }

func digest(clients []*client) [numSpanKinds]durations {
	var out [numSpanKinds]durations
	for _, c := range clients {
		for _, s := range c.spans {
			d := &out[s.kind]
			d.n++
			d.total += s.end - s.start
			d.all = append(d.all, int64(s.end-s.start))
		}
	}
	for i := range out {
		slices.Sort(out[i].all)
	}
	return out
}

// perLayer turns the traced phase into the in-workload per-layer
// metrics: where the time and the bytes of this workload went.
func perLayer(p *prepared, ph *phase, f *final, untracedOpsS float64) map[string]float64 {
	tr, inline := p.tr, p.cfg.w.inline()
	ops := float64(ph.ops)
	userW, userR := float64(ph.userWritten), float64(ph.userRead)
	d := digest(p.clients)
	put, get, scan := &d[spanPut], &d[spanGet], &d[spanScan]

	// The store's own root spans, by name.  Commit and stall spans run
	// on the calling goroutine always; flush and compaction spans do
	// when background work is inline.
	recSpans := tr.rec.Snapshot()
	byName := map[string]time.Duration{}
	for i := range recSpans {
		if s := &recSpans[i]; s.Parent == 0 {
			byName[s.Name] += s.End - s.Start
		}
	}
	flushSpan := byName["core.flush"] + byName["lsm.flush"]
	onCaller := byName["commit.enqueue"] + byName["commit.group"] + byName["write.stall"]
	if inline {
		onCaller += flushSpan + byName["lsm.compact"] + byName["wal.rotate"]
	}
	inCalls := put.total + get.total + scan.total + d[spanFlush].total

	before, after := ph.before, ph.after
	groups := float64(after.CommitGroups - before.CommitGroups)
	lookups := float64(ph.cumAfter.CacheLookups - ph.cumBefore.CacheLookups)
	levelWrite := func(l int) float64 {
		var n int64
		if l < len(after.Engine.PerLevel) {
			n = after.Engine.PerLevel[l].WriteBytes
		}
		if l < len(before.Engine.PerLevel) {
			n -= before.Engine.PerLevel[l].WriteBytes
		}
		return ratio(float64(n), userW)
	}
	vlogRec := float64(vlog.RecordLen(p.data.keys[0], p.clients[0].vbuf))
	var shardMax, shardSum float64
	for _, b := range f.shardUser {
		shardMax = max(shardMax, float64(b))
		shardSum += float64(b)
	}

	v := map[string]float64{
		"db.put_us_mean":             put.meanUs(),
		"db.put_us_p99":              put.quantileUs(0.99),
		"db.put_us_p999":             put.quantileUs(0.999),
		"db.put_us_max":              put.maxUs(),
		"db.get_us_mean":             get.meanUs(),
		"db.get_us_p99":              get.quantileUs(0.99),
		"db.get_us_p999":             get.quantileUs(0.999),
		"db.seek_us_mean":            d[spanSeek].meanUs(),
		"db.next_ns_mean":            ratio(float64(d[spanNext].total), float64(scan.n*p.cfg.sc.scanLen)),
		"db.iter_open_close_us_mean": ratio(float64(d[spanIterOpen].total+d[spanIterClose].total)/1e3, float64(scan.n)),
		"db.flush_call_s":            ph.flushCall.Seconds(),
		"db.open_s":                  p.openS,
		"db.close_s":                 f.closeS,
		"db.reopen_verify_s":         f.reopenVerifyS,
		"db.wall_s":                  ph.wall.Seconds(),
		"db.self_ms_total":           ms(inCalls - onCaller),
		"db.cpu_us_per_op":           ratio(float64(tr.cpu1-tr.cpu0)/1e3, ops),
		"db.allocs_per_op":           ratio(float64(tr.mem1.Mallocs-tr.mem0.Mallocs), ops),
		"db.alloc_bytes_per_op":      ratio(float64(tr.mem1.TotalAlloc-tr.mem0.TotalAlloc), ops),
		"db.gc_pause_ms_total":       float64(tr.mem1.PauseTotalNs-tr.mem0.PauseTotalNs) / 1e6,
		"db.heap_peak_mb":            float64(tr.heapPeak) / (1 << 20),
		// The three device-cost counts of the timed phase alone.  They
		// are zero where a workload does no such work (no writes, no
		// reads, a cache that absorbs every read), which is why they are
		// reported here and not bounded end to end.
		"db.p99_us":         float64(quantile(ph.lat, 0.99)) / 1e3,
		"db.get_retries":    float64(ph.retries),
		"db.setup_rebuilds": float64(p.rebuilds),
		"db.write_amp":      ratio(float64(ph.io.BytesWritten), userW),
		"db.read_amp":       ratio(float64(ph.io.BytesRead), userR),
		"db.dev_us_per_op":  ratio(float64(ph.dev)/1e3, ops),

		"commit.groups":          groups,
		"commit.mean_group_size": ratio(float64(after.CommitBatches-before.CommitBatches), groups),
		"commit.wait_ms_total":   ms(after.CommitWait - before.CommitWait),
		"commit.stall_count":     float64(tr.stalls.Load()),
		"commit.stall_ms_total":  float64(tr.stallNs.Load()) / 1e6,

		"span.commit_enqueue_ms_total": ms(byName["commit.enqueue"]),
		"span.commit_group_ms_total":   ms(byName["commit.group"]),
		"span.write_stall_ms_total":    ms(byName["write.stall"]),
		"span.wal_rotate_ms_total":     ms(byName["wal.rotate"]),
		"span.flush_ms_total":          ms(flushSpan),
		"span.compact_ms_total":        ms(byName["lsm.compact"]),
		// Share of the clients' wall time spent inside DB calls; the
		// rest is the benchmark's own loop.
		"span.accounted_pct": 100 * ratio(float64(inCalls), float64(ph.wall)*float64(len(p.clients))),

		"wal.bytes_per_user_byte": ratio(float64(after.WALBytes-before.WALBytes), userW),
		"wal.rotations":           float64(tr.walRotations.Load()),
		"manifest.edits":          float64(tr.manifestEdits.Load()),

		"engine.flushes":               float64(tr.flushes.Load()),
		"engine.flush_ms_total":        float64(tr.flushNs.Load()) / 1e6,
		"engine.flush_ms_max":          float64(tr.flushMaxNs.Load()) / 1e6,
		"engine.merge_ms_total":        float64(tr.mergeNs.Load()) / 1e6,
		"engine.appends":               float64(tr.appends.Load()),
		"engine.merges":                float64(tr.merges.Load()),
		"engine.moves":                 float64(tr.moves.Load()),
		"engine.splits":                float64(tr.splits.Load()),
		"engine.combines":              float64(tr.combines.Load()),
		"engine.write_amp_L0":          levelWrite(0),
		"engine.write_amp_L1":          levelWrite(1),
		"engine.write_amp_L2":          levelWrite(2),
		"engine.write_amp_L3":          levelWrite(3),
		"engine.write_amp_L4":          levelWrite(4),
		"engine.write_amp_L5":          levelWrite(5),
		"engine.tree_write_amp":        ratio(float64(after.Engine.TotalFlushBytes()-before.Engine.TotalFlushBytes()), userW),
		"engine.compaction_read_bytes": float64(after.Engine.TotalReadBytes() - before.Engine.TotalReadBytes()),
		"engine.levels":                float64(f.levels),
		"engine.seqs_total":            float64(f.seqs),
		"engine.mixed_level_m":         float64(f.mixedM),

		"cache.hit_ratio":      ph.cacheHitRatio(),
		"cache.lookups_per_op": ratio(lookups, ops),

		"vfs.write_ops_per_op": ratio(float64(ph.io.WriteOps), ops),
		"vfs.read_ops_per_op":  ratio(float64(ph.io.ReadOps), ops),
		"vfs.seeks_per_op":     ratio(float64(ph.io.Seeks), ops),
		"vfs.mean_write_kb":    ratio(float64(ph.io.BytesWritten)/1024, float64(ph.io.WriteOps)),
		"vfs.bytes_written":    float64(ph.io.BytesWritten),
		"vfs.bytes_read":       float64(ph.io.BytesRead),

		"vlog.appends":             float64(after.VLogAppends - before.VLogAppends),
		"vlog.resolves":            float64(after.VLogResolves - before.VLogResolves),
		"vlog.gc_segments":         float64(after.VLogGCSegments - before.VLogGCSegments),
		"vlog.discard_ratio":       ratio(float64(after.VLogDiscardBytes), float64(after.VLogBytes)),
		"vlog.bytes_per_user_byte": ratio(float64(after.VLogAppends-before.VLogAppends)*vlogRec, userW),
		"shard.imbalance":          ratio(shardMax*float64(len(f.shardUser)), shardSum),

		"trace.overhead_pct": 100 * ratio(untracedOpsS-ph.opsS, untracedOpsS),
		"trace.spans":        float64(len(recSpans)) + float64(tr.rec.Dropped()),
		"trace.dropped":      float64(tr.rec.Dropped()),
	}
	for _, c := range p.clients {
		v["trace.spans"] += float64(len(c.spans))
	}
	return v
}

// writeSpans writes every span of the traced phase, the benchmark's
// own and the store's, as JSON lines under cfg.out.  The benchmark's
// spans hang under one phase span; the parts of a scan hang under its
// db.scan span; and when background work is inline, so that the
// store's root spans run inside a single client's calls, each is given
// the call that contains it as its parent.
func writeSpans(cfg *config, p *prepared) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.w.name, cfg.seed))
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)

	const benchBase = uint64(1) << 32 // above every ID the store's recorder hands out
	phaseID := benchBase
	fmt.Fprintf(w, `{"id":%d,"name":"bench.phase","workload":%q,"seed":%d}`+"\n", phaseID, cfg.w.name, cfg.seed)
	next := benchBase + 1
	type placed struct {
		id         uint64
		start, end time.Duration
	}
	var calls []placed // client 0's whole operations, in time order
	for _, c := range p.clients {
		ids := make([]uint64, len(c.spans))
		for i := range ids {
			ids[i] = next
			next++
		}
		parent := phaseID
		parents := make([]uint64, len(c.spans))
		for i := len(c.spans) - 1; i >= 0; i-- {
			switch s := c.spans[i]; {
			case s.kind == spanScan:
				parents[i], parent = phaseID, ids[i]
			case s.kind.topLevel():
				parents[i], parent = phaseID, phaseID
			default:
				parents[i] = parent
			}
		}
		for i, s := range c.spans {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"client":%d,"op":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
				ids[i], parents[i], spanNames[s.kind], c.id, s.op, int64(s.start), int64(s.end-s.start))
			if c.id == 0 && s.kind.topLevel() {
				calls = append(calls, placed{ids[i], s.start, s.end})
			}
		}
	}

	recSpans := p.tr.rec.Snapshot()
	if cfg.w.inline() {
		for i := range recSpans {
			s := &recSpans[i]
			if s.Parent != 0 {
				continue
			}
			j := sort.Search(len(calls), func(j int) bool { return calls[j].end >= s.End })
			if j < len(calls) && calls[j].start <= s.Start {
				s.Parent = calls[j].id
			}
		}
	}
	if err := trace.WriteJSONLines(w, recSpans); err != nil {
		_ = file.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = file.Close()
		return err
	}
	return file.Close()
}
