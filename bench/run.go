package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"iamdb"
	"iamdb/internal/metrics"
	"iamdb/internal/vfs"
)

const (
	dbDir = "db"
	// chunkOps is how many operations a client runs between two looks
	// at the clock; each look leaves a mark the throughput slices are
	// cut from.
	chunkOps = 64
	// setupRepeats is how many times an untraced run builds its store;
	// setup_s is the median and the timed phase uses the last build.
	setupRepeats = 3
	// minTail is how many samples must lie beyond a reported percentile.
	minTail = 10
	// spaceEvery is how many chunks client 0 of a writing workload runs
	// between two looks at the store's footprint.
	spaceEvery = 64
)

// config is what one run is asked to do.
type config struct {
	w       *workload
	sc      scale
	seed    int64
	seconds float64
	// maxOps, when positive, ends the timed phase after that many
	// operations per client instead of after seconds, so that two runs
	// do identical work and their counts repeat exactly.
	maxOps int64
	traced bool
	out    string
}

// env is the device under one store: real bytes held in memory, every
// byte, op and seek counted, and a modeled-SSD clock charged without
// sleeping.
type env struct {
	mem   *vfs.MemFS
	disk  *vfs.Disk
	stats *vfs.IOStats
	fs    *vfs.StatsFS
}

func newEnv() *env {
	e := &env{mem: vfs.NewMemFS(), stats: &vfs.IOStats{}}
	e.disk = vfs.NewDisk(e.mem, vfs.SSDProfile(), nil)
	e.fs = vfs.NewStatsFS(e.disk, e.stats)
	return e
}

// prepared is a store built, closed and reopened cold, with every
// client's operation list generated: everything before the first timed
// operation.
type prepared struct {
	cfg       *config
	env       *env
	data      *dataset
	db        *iamdb.DB
	tr        *tracer
	clients   []*client
	setupUser int64 // key+value bytes the set-up wrote
	openS     float64
	rebuilds  int // builds abandoned because the store hid records of the image
}

func (p *prepared) options(inline bool, tr *tracer) *iamdb.Options {
	w, sc := p.cfg.w, p.cfg.sc
	o := &iamdb.Options{
		Engine:            w.engine,
		FS:                p.env.fs,
		MemtableSize:      sc.memtable,
		CacheSize:         sc.cache,
		MemBudget:         sc.cache / 2,
		Fanout:            10,
		K:                 3,
		BitsPerKey:        14,
		CompactionThreads: 1,
		InlineBackground:  inline,
	}
	if w.large {
		o.ValueThreshold = 1024
		o.VlogSegmentSize = sc.vlogSegment
		o.Shards = 2
		// Every key starts with "user", so the default first-byte
		// split would leave one shard empty; split at the median key.
		o.ShardSplits = [][]byte{p.data.keys[p.data.order[p.data.n/2]]}
	}
	if tr != nil {
		o.Clock = tr.clock
		o.Trace = tr.rec
		o.EventListener = tr.listener()
	}
	return o
}

// maxBuilds bounds how many inputs prepare tries before it gives up on
// a seed, and seedStride keeps the inputs of successive tries apart.
const (
	maxBuilds  = 4
	seedStride = 1_000_003
)

// imageDefect reports a freshly built, flushed store that does not show
// every record it was given.
type imageDefect struct{ first error }

func (e *imageDefect) Error() string {
	return fmt.Sprintf("the store hides records of its set-up image: %v", e.first)
}

// prepare is build, tried again with the next inputs of the same seed
// when the store fails to show the image it was just given.  That is a
// defect of the store at this revision, not of a workload (README.md:
// internal/core can leave two nodes of a level with overlapping ranges,
// which hides the records of one from Get and from scans until a later
// merge rewrites them; about one hash load in twenty ends that way).  A
// run measures a store that works, so it moves on to inputs on which
// the store does, and says how often it had to (db.setup_rebuilds).
func prepare(cfg *config, tr *tracer) (*prepared, error) {
	for try := 0; ; try++ {
		p, err := build(cfg, tr, try)
		if err == nil {
			p.rebuilds = try
			return p, nil
		}
		var defect *imageDefect
		if !errors.As(err, &defect) || try == maxBuilds-1 {
			return nil, err
		}
	}
}

// build makes the workload's store image with flushes and cascades on
// the caller, so the image and its device counts depend on the seed
// alone, checks that the store shows all of it, then reopens it with
// the run's options and a cold cache.
func build(cfg *config, tr *tracer, try int) (*prepared, error) {
	w, sc := cfg.w, cfg.sc
	rng := rand.New(rand.NewSource(cfg.seed + int64(try)*seedStride))
	d := newDataset(w.records(sc), sc.absentKeys, w.valueSize(sc), rng)
	p := &prepared{cfg: cfg, env: newEnv(), data: d, tr: tr}
	if tr != nil {
		tr.mem = p.env.mem
	}

	db, err := iamdb.Open(dbDir, p.options(true, nil))
	if err != nil {
		return nil, fmt.Errorf("set-up open: %w", err)
	}
	vbuf := make([]byte, d.valueSize)
	put := func(idx int, ver uint32) error {
		if err := db.Put(d.keys[idx], d.value(vbuf, idx, ver)); err != nil {
			return fmt.Errorf("set-up put: %w", err)
		}
		d.version[idx] = ver
		p.setupUser += int64(len(d.keys[idx]) + d.valueSize)
		return nil
	}
	for _, idx := range rng.Perm(d.n) {
		if err := put(idx, 0); err != nil {
			return nil, err
		}
	}
	if err := db.Flush(); err != nil {
		return nil, fmt.Errorf("set-up flush: %w", err)
	}
	if w.image == imageStandard {
		for i := 0; i < sc.imageOverwrites; i++ {
			idx := rng.Intn(d.n)
			if err := put(idx, d.version[idx]+1); err != nil {
				return nil, err
			}
		}
		if err := db.Flush(); err != nil {
			return nil, fmt.Errorf("set-up flush: %w", err)
		}
	}
	_, hidden, first, err := scanModel(db, d)
	if cerr := db.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("set-up close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if hidden > 0 {
		return nil, &imageDefect{first}
	}

	for c := 0; c < w.clients; c++ {
		ops := w.genOps(sc, d, c, rand.New(rand.NewSource(rng.Int63())))
		p.clients = append(p.clients, newClient(p, c, ops))
	}

	t0 := time.Now()
	if p.db, err = iamdb.Open(dbDir, p.options(w.inline(), tr)); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	p.openS = time.Since(t0).Seconds()
	if w.warm {
		warm := newClient(p, 0, nil)
		for _, idx := range hotSet(p.clients[0].ops) {
			warm.get(idx)
		}
		if warm.firstErr != nil {
			return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
		}
	}
	return p, nil
}

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned, and checks everything it reads.
type client struct {
	id   int
	p    *prepared
	ops  []op
	pos  int
	vbuf []byte
	gbuf []byte

	done        int64
	failed      int64
	firstErr    error
	userWritten int64 // key+value bytes put
	userRead    int64 // key+value bytes returned
	retries     int64 // Gets tried again after losing a race with value-log GC
	lat         []int64
	marks       []int64
	space       []float64 // Metrics.SpaceUsed, sampled every spaceEvery chunks
	spans       []span
}

func newClient(p *prepared, id int, ops []op) *client {
	return &client{id: id, p: p, ops: ops, vbuf: make([]byte, p.data.valueSize)}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// owns reports whether this client is the only writer of record idx,
// and so knows its latest version.
func (c *client) owns(idx int) bool { return idx%len(c.p.clients) == c.id }

// run is the timed loop.  Every sampleEvery-th operation is timed on
// its own for the latency percentiles.
func (c *client) run(start time.Time, limit time.Duration, maxOps int64) {
	every := c.p.cfg.w.sampleEvery
	for {
		for i := 0; i < chunkOps; i++ {
			o := c.ops[c.pos]
			if c.pos++; c.pos == len(c.ops) {
				c.pos = 0
			}
			if c.done%every == 0 {
				t0 := time.Now()
				c.do(o)
				c.lat = append(c.lat, int64(time.Since(t0)))
			} else {
				c.do(o)
			}
			c.done++
		}
		elapsed := time.Since(start)
		c.marks = append(c.marks, int64(elapsed))
		if c.id == 0 && c.p.cfg.w.writes() && len(c.marks)%spaceEvery == 0 {
			c.space = append(c.space, float64(c.p.db.Metrics().SpaceUsed))
		}
		c.p.tr.sampleHeap(c)
		if elapsed >= limit || (maxOps > 0 && c.done >= maxOps) {
			return
		}
	}
}

func (c *client) do(o op) {
	switch {
	case c.p.cfg.w.kind == kindScan:
		c.scan(o.index())
	case o.write():
		c.put(o.index())
	default:
		c.get(o.index())
	}
}

func (c *client) put(idx int) {
	d := c.p.data
	ver := d.version[idx] + 1
	key, val := d.keys[idx], d.value(c.vbuf, idx, ver)
	t := c.p.tr.now()
	err := c.p.db.Put(key, val)
	c.p.tr.span(c, spanPut, t)
	if err != nil {
		c.fail(fmt.Errorf("put %s: %w", key, err))
		return
	}
	d.version[idx] = ver
	c.userWritten += int64(len(key) + len(val))
}

func (c *client) get(idx int) {
	d := c.p.data
	key := d.keys[idx]
	t := c.p.tr.now()
	val, err := c.p.db.GetInto(key, c.gbuf[:0])
	if err != nil && iamdb.IsCorruption(err) && c.p.cfg.w.large {
		// A defect of the store, not of this workload: a plain Get holds
		// no pin on the value log, so a reader that fetched a value
		// pointer just before the collector rewrote the record and
		// deleted its segment finds the segment gone.  Nothing is lost
		// and a second Get succeeds, so the race is counted
		// (db.get_retries) and the read tried once more; what the second
		// Get returns is checked like any other.  See README.md.
		c.retries++
		val, err = c.p.db.GetInto(key, c.gbuf[:0])
	}
	c.p.tr.span(c, spanGet, t)
	if idx >= d.n {
		if !errors.Is(err, iamdb.ErrNotFound) {
			c.fail(fmt.Errorf("get absent %s: value %d bytes, err %v", key, len(val), err))
		}
		return
	}
	if err != nil {
		c.fail(fmt.Errorf("get %s: %w", key, err))
		return
	}
	c.gbuf = val
	want := int64(-1)
	if c.owns(idx) {
		want = int64(d.version[idx])
	}
	if !d.check(idx, val, want) {
		c.fail(fmt.Errorf("get %s: wrong or stale value (want version %d)", key, want))
		return
	}
	c.userRead += int64(len(key) + len(val))
}

// scan is NewIterator, Seek, scanLen x (Value, Next), Close, counted
// as one operation and checked record by record against the model.
func (c *client) scan(idx int) {
	d, tr := c.p.data, c.p.tr
	first := int(d.rank[idx])
	whole := tr.now()
	it := c.p.db.NewIterator()
	tr.span(c, spanIterOpen, whole)
	t := tr.now()
	it.Seek(d.keys[idx])
	tr.span(c, spanSeek, t)
	t = tr.now()
	for j := 0; j < c.p.cfg.sc.scanLen; j++ {
		if !it.Valid() {
			c.fail(fmt.Errorf("scan from %s: short after %d records", d.keys[idx], j))
			break
		}
		want := int(d.order[first+j])
		key, val := it.Key(), it.Value()
		if !bytes.Equal(key, d.keys[want]) || !d.check(want, val, int64(d.version[want])) {
			c.fail(fmt.Errorf("scan from %s: record %d is %s, want %s at version %d",
				d.keys[idx], j, key, d.keys[want], d.version[want]))
			break
		}
		c.userRead += int64(len(key) + len(val))
		it.Next()
	}
	tr.span(c, spanNext, t)
	t = tr.now()
	err := it.Err()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	tr.span(c, spanIterClose, t)
	tr.span(c, spanScan, whole)
	if err != nil {
		c.fail(fmt.Errorf("scan from %s: %w", d.keys[idx], err))
	}
}

// phase is what the timed phase measured.
type phase struct {
	ops         int64
	failed      int64
	firstErr    error
	wall        time.Duration // loop plus the final Flush of a writing workload
	flushCall   time.Duration
	opsS        float64
	lat         []int64 // sorted
	userWritten int64
	userRead    int64
	retries     int64
	io          vfs.IOSnapshot // device traffic of the phase
	ioEnd       vfs.IOSnapshot // device traffic since the store was created
	dev         time.Duration  // modeled device time of the phase
	before      iamdb.Metrics
	after       iamdb.Metrics
	cumBefore   metrics.Cumulative
	cumAfter    metrics.Cumulative
}

func (ph *phase) cacheHitRatio() float64 {
	return ratio(float64(ph.cumAfter.CacheHits-ph.cumBefore.CacheHits),
		float64(ph.cumAfter.CacheLookups-ph.cumBefore.CacheLookups))
}

// measure runs the timed phase: every client loops until the time (or
// the operation cap) is up, then a writing workload flushes, so every
// user byte of the phase has reached the device when the counters are
// read.
func (p *prepared) measure() *phase {
	cfg := p.cfg
	runtime.GC() // start every timed phase from a collected heap, not from the set-up's garbage
	ph := &phase{before: p.db.Metrics(), cumBefore: p.db.SampleCumulative()}
	io0, dev0 := p.env.stats.Snapshot(), p.env.disk.Clock().Elapsed()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	p.tr.phaseBegin()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range p.clients[1:] {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(start, limit, cfg.maxOps)
		}(c)
	}
	p.clients[0].run(start, limit, cfg.maxOps)
	wg.Wait()
	if cfg.w.writes() {
		t0, t := time.Now(), p.tr.now()
		err := p.db.Flush()
		p.tr.span(p.clients[0], spanFlush, t)
		ph.flushCall = time.Since(t0)
		if err != nil {
			p.clients[0].fail(fmt.Errorf("final flush: %w", err))
		}
	}
	ph.wall = time.Since(start)
	p.tr.phaseEnd()

	ph.ioEnd = p.env.stats.Snapshot()
	ph.io = ph.ioEnd.Sub(io0)
	ph.dev = p.env.disk.Clock().Elapsed() - dev0
	ph.after, ph.cumAfter = p.db.Metrics(), p.db.SampleCumulative()
	for _, c := range p.clients {
		ph.ops += c.done
		ph.failed += c.failed
		if ph.firstErr == nil {
			ph.firstErr = c.firstErr
		}
		ph.userWritten += c.userWritten
		ph.userRead += c.userRead
		ph.retries += c.retries
		ph.opsS += sliceRate(c.marks)
		ph.lat = append(ph.lat, c.lat...)
	}
	slices.Sort(ph.lat)
	return ph
}

// sliceRate is one client's throughput: its operations cut into eight
// slices of equal count, and the rate of the median slice, so that a
// stall or a burst confined to one slice does not move the figure.
func sliceRate(marks []int64) float64 {
	const slices = 8
	n := len(marks)
	if n < slices {
		return float64(n*chunkOps) / (float64(marks[n-1]) / 1e9)
	}
	rates := make([]float64, slices)
	for s := range rates {
		lo, hi := s*n/slices, (s+1)*n/slices
		var from int64
		if lo > 0 {
			from = marks[lo-1]
		}
		rates[s] = float64((hi-lo)*chunkOps) / (float64(marks[hi-1]-from) / 1e9)
	}
	return median(rates)
}

// final is the state of the store after the timed phase, and the
// outcome of reading all of it back.
type final struct {
	// space is the store's footprint: the median of Metrics.SpaceUsed
	// over the timed phase and after its final Flush.  The end value
	// alone depends on where in a cascade, or in a value-log collection,
	// the phase happened to stop.
	space         float64
	levels        int
	seqs          int
	mixedM        int     // IAM's mixed level (shard 0's on a sharded store)
	shardUser     []int64 // per-shard key+value bytes written in the phase
	shardSpace    []int64
	closeS        float64
	reopenVerifyS float64
	checked       int64
	failed        int64
	firstErr      error
}

// finish closes the store, reopens it and checks a full scan against
// the model: every record present, in order, at its latest version.
func (p *prepared) finish() (*final, error) {
	d := p.data
	m := p.db.Metrics()
	f := &final{space: median(append(p.clients[0].space, float64(m.SpaceUsed)))}
	f.mixedM, _ = p.db.MixedLevel()
	for _, li := range m.Levels {
		if li.Nodes > 0 {
			f.levels++
			f.seqs += li.Seqs
		}
	}
	for i := 0; i < p.db.NumShards(); i++ {
		sm := p.db.ShardMetrics(i)
		f.shardUser = append(f.shardUser, sm.UserBytes)
		f.shardSpace = append(f.shardSpace, sm.SpaceUsed)
	}
	t0 := time.Now()
	if err := p.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	f.closeS = time.Since(t0).Seconds()

	t0 = time.Now()
	db, err := iamdb.Open(dbDir, p.options(true, nil))
	if err != nil {
		return nil, fmt.Errorf("verify reopen: %w", err)
	}
	f.checked, f.failed, f.firstErr, err = scanModel(db, d)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	f.reopenVerifyS = time.Since(t0).Seconds()
	return f, nil
}

// scanModel reads the whole store through an iterator and checks it
// against the model: every record present, in order, at its latest
// version.  It returns how many records it checked (at least the
// model's), how many were wrong or missing, and the first such.
func scanModel(db *iamdb.DB, d *dataset) (checked, failed int64, first, err error) {
	it := db.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		bad := checked >= int64(d.n)
		if !bad {
			want := int(d.order[checked])
			bad = !bytes.Equal(it.Key(), d.keys[want]) || !d.check(want, it.Value(), int64(d.version[want]))
		}
		if bad {
			failed++
			if first == nil {
				first = fmt.Errorf("full scan: record %d is %s, not the model's", checked, it.Key())
			}
		}
		checked++
	}
	err = it.Err()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	if missing := int64(d.n) - checked; missing > 0 {
		failed += missing
		checked = int64(d.n)
		if first == nil {
			first = fmt.Errorf("full scan: %d records missing", missing)
		}
	}
	return checked, failed, first, err
}

// checkSizing fails a run whose workload no longer loads the layers it
// was sized to load.  The thresholds hold at factor 1 only.
func checkSizing(cfg *config, ph *phase, f *final) error {
	if !cfg.sc.guards {
		return nil
	}
	if tail := len(ph.lat) - int(float64(len(ph.lat))*0.99); tail < minTail {
		return fmt.Errorf("%d latency samples leave %d beyond p99, want %d", len(ph.lat), tail, minTail)
	}
	switch cfg.w.name {
	case "read-hot":
		if r := ph.cacheHitRatio(); r < 0.99 {
			return fmt.Errorf("cache hit ratio %.3f < 0.99: the hot set no longer fits the cache", r)
		}
	case "read-uniform":
		if r := ph.cacheHitRatio(); r >= 0.30 {
			return fmt.Errorf("cache hit ratio %.3f >= 0.30: the data no longer exceeds the cache", r)
		}
	case "overwrite":
		flushes := ph.after.Engine.Flushes - ph.before.Engine.Flushes
		if f.levels < 4 || flushes < 100 {
			return fmt.Errorf("%d levels and %d flushes, want >= 4 and >= 100: write amplification has not levelled off", f.levels, flushes)
		}
	case "mixed-large":
		if n := ph.after.VLogGCSegments - ph.before.VLogGCSegments; n == 0 {
			return errors.New("value-log GC collected no segment")
		}
		for i, s := range f.shardSpace {
			if s == 0 || f.shardUser[i] == 0 {
				return fmt.Errorf("shard %d took no data", i)
			}
		}
	}
	return nil
}

// outcome is one finished run.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	firstErr  error
	ops       int64 // timed operations, all clients
	samples   int   // latency samples behind the percentiles
	retries   int64 // Gets tried again after an error (see client.get)
	rebuilds  int   // set-up builds abandoned (see prepare)
}

// run measures the prepared store, reads it back, checks the
// workload's sizing and adds the counts to the outcome.
func (o *outcome) run(p *prepared) (*phase, *final, error) {
	ph := p.measure()
	f, err := p.finish()
	if err != nil {
		return nil, nil, err
	}
	if err := checkSizing(p.cfg, ph, f); err != nil {
		return nil, nil, fmt.Errorf("%s is mis-sized: %w", p.cfg.w.name, err)
	}
	o.add(ph, f)
	return ph, f, nil
}

func (o *outcome) add(ph *phase, f *final) {
	o.retries += ph.retries
	o.attempted += ph.ops + f.checked
	o.failed += ph.failed + f.failed
	for _, err := range []error{ph.firstErr, f.firstErr} {
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// runOne runs one workload once.  Untraced, it reports the end-to-end
// metrics; traced, it runs the timed phase twice from the same image,
// without and with tracing, then the layer drives, and reports the
// per-layer metrics.
func runOne(cfg *config) (*outcome, error) {
	if cfg.w.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%s runs %d clients on %d CPUs", cfg.w.name, cfg.w.clients, runtime.NumCPU())
	}
	if cfg.traced {
		return runTraced(cfg)
	}
	var (
		p      *prepared
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		p = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = prepare(cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := p.db.Close(); err != nil {
				return nil, fmt.Errorf("close spare set-up: %w", err)
			}
		}
	}
	o := &outcome{rebuilds: p.rebuilds}
	ph, f, err := o.run(p)
	if err != nil {
		return nil, err
	}
	o.ops, o.samples = ph.ops, len(ph.lat)
	o.values = map[string]float64{
		"setup_s": median(setups),
		"ops_s":   ph.opsS,
		"p50_us":  float64(quantile(ph.lat, 0.50)) / 1e3,
		// All device bytes written since the store was created, set-up
		// included, per user byte put: on a read-only workload this is
		// the write amplification of the image it reads.
		"write_amp": float64(ph.ioEnd.BytesWritten) / float64(p.setupUser+ph.userWritten),
		"space_amp": f.space / float64(p.data.liveBytes()),
	}
	return o, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * q)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
