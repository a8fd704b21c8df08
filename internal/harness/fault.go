package harness

// The fault matrices: one scripted history against a deliberately tiny
// store, one acknowledged-history model, and the two ways the matrices
// break the store underneath it.
//
// The crash matrix stacks the store on vfs.CrashFS, kills the filesystem
// at a chosen operation index, reopens the store from the surviving
// durable state, and checks the recovery verdict:
//
//   - every acknowledged write is present with its exact value
//     (SyncWrites is on, so acknowledged means WAL-synced),
//   - a write that was never acknowledged is never served — except the
//     single operation that observed the crash, which is legitimately
//     indeterminate (its data may have become durable just before the
//     failure surfaced),
//   - the reopened store passes the engine's structural invariant
//     check and accepts new writes.
//
// That verdict is interleaving-independent: background flushes and
// compactions move the crash point between runs, but acknowledged
// durability and never-served-uncommitted hold for any schedule, so a
// trial is sound wherever the crash actually lands.
//
// The corruption matrix, its latent-fault sibling, builds the store,
// closes it cleanly, damages exactly one byte of the synced image at a
// chosen (file × offset) point, reopens, and checks the rot verdict:
//
//   - the reopen either succeeds or fails with a typed corruption
//     error naming the damaged file — never a panic, never an
//     unattributed failure,
//   - every key the reopened store serves returns bytes it actually
//     acknowledged at some point (wrong data is never forgiven;
//     detection does not launder reads),
//   - an acknowledged key may be missing or stale only when the store
//     *detected* corruption (typed read error, open-time suspicion, or
//     quarantine) — silent loss is a violation,
//   - when the damage was provably harmless (zeroing an already-zero
//     byte) the store must behave as if nothing happened: every key
//     exact, nothing detected, nothing quarantined — quarantine must
//     never hide an uncorrupted table.
//
// Points are enumerated per trial from that trial's own store image
// (deterministic builds make the landscapes identical), covering file
// heads, interior fractions and tail regions — footers, final WAL
// blocks and manifest tails rot in practice more than anywhere else.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"iamdb"
	"iamdb/internal/vfs"
)

// Workload describes the store one fault-matrix scenario runs against.
type Workload struct {
	// Engine picks the storage tree under test.
	Engine iamdb.EngineKind
	// Shards > 1 runs against a range-sharded front-end, splitting the
	// keyspace evenly so every shard's WAL, files and recovery path enter
	// the matrix.
	Shards int
	// ValueThreshold > 0 turns on key-value separation: crashes land
	// between value-log appends, log syncs and WAL pointer commits — the
	// window the value-durable-before-pointer ordering must cover — and
	// the corruption points include the value-log segments (they live in
	// the same directories, so List picks them up), where reads must
	// detect rotted values behind live pointers.
	ValueThreshold int
}

// script is the scripted history: seeded-random keys over a keyspace
// small enough that keys are overwritten and deleted repeatedly, so
// recovery must resolve multiple versions; self-describing values encoding
// the operation index; a delete every 17th operation.
type script struct {
	keys, ops int
	// readback checks read-your-writes on every 13th operation.
	readback bool
	// tail > 0 flushes after the last operation, so the acknowledged
	// state is all in the engine — a rotted WAL tail must then never cost
	// an acknowledged key — and then puts tail more records, so the live
	// WAL holds real ones and log-rot trials exercise recovery replay
	// rather than an empty file.  SyncWrites means these are acknowledged
	// durable too.
	tail int
}

var (
	crashScript = script{keys: 400, ops: 400, readback: true}
	rotScript   = script{keys: 300, ops: 500, tail: 12}
)

// open opens a deliberately tiny DB, so a few hundred operations exercise
// WAL rotation, flushes, compaction cascades, splits and merges.  The crash
// matrix runs the real background workers, whose backoff abandons after a
// handful of attempts: after a crash every retry fails, and the workers
// must park rather than spin.  The corruption matrix runs them inline:
// that makes the build single-threaded and therefore the on-disk landscape
// deterministic, so every trial of a workload sees the same files at the
// same sizes.
func (w Workload) open(fs vfs.FS, sc script, inline bool) (*iamdb.DB, error) {
	giveUp := 6
	if inline {
		giveUp = 3
	}
	o := &iamdb.Options{
		Engine:       w.Engine,
		FS:           fs,
		MemtableSize: 2 * 1024, CacheSize: 64 * 1024,
		MemBudget: 8 * 1024, Fanout: 4, K: 2,
		FileSize: 4 * 1024, LevelSizeBase: 16 * 1024,
		L0CompactTrigger: 2,
		SyncWrites:       true,
		InlineBackground: inline,
		BgRetryLimit:     2,
		BgBackoff:        func(failures int) bool { return failures < giveUp },
	}
	if w.ValueThreshold > 0 {
		o.ValueThreshold = w.ValueThreshold
		// Tiny segments so the scripted run rotates the log several times.
		o.VlogSegmentSize = 2 * 1024
	}
	if w.Shards > 1 {
		// Even ranges of the "keyNNNN" keyspace: 4 shards over 400 keys
		// split at key0100, key0200, key0300.
		o.Shards = w.Shards
		for j := 1; j < w.Shards; j++ {
			o.ShardSplits = append(o.ShardSplits, []byte(fmt.Sprintf("key%04d", sc.keys*j/w.Shards)))
		}
	}
	return iamdb.Open("db", o)
}

// history is the acknowledged-history model both verdicts read: the latest
// acknowledged state, every value each key was ever acknowledged with
// (damage that rolls durable state back — a truncated manifest tail —
// legally resurfaces older acknowledged values once the store has flagged
// the corruption), and the one operation the store refused.
type history struct {
	latest map[string]string          // key -> last acknowledged value
	ever   map[string]map[string]bool // key -> every acknowledged value
	// The refused operation is indeterminate: it was not acknowledged,
	// but its effect may have become durable before the error surfaced
	// (e.g. the WAL sync landed and a later filesystem call failed).
	refused *refusedOp
}

type refusedOp struct {
	key, val string
	del      bool
}

func newHistory() *history {
	return &history{latest: make(map[string]string), ever: make(map[string]map[string]bool)}
}

func (h *history) put(k, v string) {
	h.latest[k] = v
	if h.ever[k] == nil {
		h.ever[k] = make(map[string]bool)
	}
	h.ever[k][v] = true
}

// errReadBack marks a read-your-writes check that returned other bytes
// than the acknowledged ones: a violation whatever else happened.
var errReadBack = errors.New("read back a different value")

// run issues the script against db, recording every acknowledgement in h.
// It stops at the first operation the store refuses; a refused write is in
// h as the indeterminate operation.
func (sc script) run(db *iamdb.DB, h *history) error {
	rng := rand.New(rand.NewSource(1))
	put := func(k, v string) error {
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			h.refused = &refusedOp{key: k, val: v}
			return fmt.Errorf("put %s: %w", k, err)
		}
		h.put(k, v)
		return nil
	}
	for i := 0; i < sc.ops; i++ {
		k := fmt.Sprintf("key%04d", rng.Intn(sc.keys))
		if i%17 == 13 {
			if err := db.Delete([]byte(k)); err != nil {
				h.refused = &refusedOp{key: k, del: true}
				return fmt.Errorf("delete %s: %w", k, err)
			}
			delete(h.latest, k)
			continue
		}
		v := fmt.Sprintf("val-%06d-%s", i, k)
		if err := put(k, v); err != nil {
			return err
		}
		if sc.readback && i%13 == 7 {
			got, err := db.Get([]byte(k))
			if err != nil {
				return fmt.Errorf("mid-run get %s: %w", k, err)
			}
			if string(got) != v {
				return fmt.Errorf("mid-run get %s = %q, want %q: %w", k, got, v, errReadBack)
			}
		}
	}
	if sc.tail == 0 {
		return nil
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	for i := 0; i < sc.tail; i++ {
		k := fmt.Sprintf("key%04d", rng.Intn(sc.keys))
		if err := put(k, fmt.Sprintf("val-tail%02d-%s", i, k)); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Crash matrix.

// CrashCalibration reports the filesystem-operation landscape of a
// workload run to completion with no crash: how many mutating
// operations it issues and at which indices syncs happen.  Crash
// points are chosen from this landscape.
type CrashCalibration struct {
	// OpCount is the total number of mutating filesystem operations.
	OpCount int64
	// SyncPoints are the operation indices of Sync calls — the
	// durability boundaries, the most interesting places to crash.
	SyncPoints []int64
}

// CalibrateCrash runs the workload with no crash scheduled and reports
// the operation landscape.
func (w Workload) CalibrateCrash() (CrashCalibration, error) {
	cfs := vfs.NewCrashFS(vfs.NewMemFS(), vfs.CrashDrop)
	db, err := w.open(cfs, crashScript, false)
	if err != nil {
		return CrashCalibration{}, err
	}
	if err := crashScript.run(db, newHistory()); err != nil {
		_ = db.Close()
		return CrashCalibration{}, err
	}
	if err := db.Close(); err != nil {
		return CrashCalibration{}, err
	}
	return CrashCalibration{OpCount: cfs.OpCount(), SyncPoints: cfs.SyncPoints()}, nil
}

// CrashTrial runs the workload with a crash scheduled at mutating-operation
// index crashAt — mode says what happens to the last unsynced write:
// dropped, torn, or bit-flipped — recovers, reopens, and checks the
// verdict.  A non-nil error is a violation (or an unexpected
// infrastructure failure).  If the workload finishes before reaching
// crashAt, the crash is forced at the end so every trial exercises
// recovery.
func (w Workload) CrashTrial(mode vfs.CrashMode, crashAt int64) error {
	cfs := vfs.NewCrashFS(vfs.NewMemFS(), mode)
	cfs.CrashAt(crashAt)
	h := newHistory()
	db, err := w.open(cfs, crashScript, false)
	if err != nil {
		if !cfs.Crashed() {
			return fmt.Errorf("open: %w", err)
		}
		// Crash during the initial open: nothing was acknowledged, so
		// the store must simply reopen cleanly (possibly empty).
	} else {
		// A refused write is the crash reaching the write path, and a
		// failed read one that landed between a put and its check; the
		// script stopping for any other reason is a finding.
		err := crashScript.run(db, h)
		if err != nil && (errors.Is(err, errReadBack) || h.refused == nil && !cfs.Crashed()) {
			_ = db.Close()
			return fmt.Errorf("crashAt=%d: %w", crashAt, err)
		}
		if !cfs.Crashed() {
			cfs.Crash()
		}
		_ = db.Close()
	}
	cfs.Recover()
	db2, err := w.open(cfs, crashScript, false)
	if err != nil {
		return fmt.Errorf("crashAt=%d: reopen: %w", crashAt, err)
	}
	defer db2.Close()
	if err := crashVerdict(db2, h); err != nil {
		return fmt.Errorf("crashAt=%d: %w", crashAt, err)
	}
	return nil
}

// legalAfterCrash reports whether the recovered state of key k (value val
// when found, absent otherwise) is the acknowledged one — or, for the key
// of the refused operation, either that or the refused operation's.
func (h *history) legalAfterCrash(k, val string, found bool) bool {
	want, acked := h.latest[k]
	old := found && acked && val == want || !found && !acked
	if r := h.refused; r != nil && k == r.key {
		if r.del {
			return old || !found
		}
		return old || found && val == r.val
	}
	return old
}

// crashVerdict checks the recovered store against the history: point
// lookups over the whole keyspace, a full scan, the engine's structural
// invariants, and post-recovery writability.
func crashVerdict(db *iamdb.DB, h *history) error {
	for i := 0; i < crashScript.keys; i++ {
		k := fmt.Sprintf("key%04d", i)
		v, err := db.Get([]byte(k))
		if err != nil && err != iamdb.ErrNotFound {
			return fmt.Errorf("get %s after recovery: %w", k, err)
		}
		if !h.legalAfterCrash(k, string(v), err == nil) {
			return fmt.Errorf("oracle violation: key %s recovered as (%q, found=%v), acked %q",
				k, v, err == nil, h.latest[k])
		}
	}
	it := db.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		k, v := string(it.Key()), string(it.Value())
		if !h.legalAfterCrash(k, v, true) {
			it.Close()
			return fmt.Errorf("oracle violation: scan surfaced %s=%q, acked %q", k, v, h.latest[k])
		}
	}
	if err := it.Err(); err != nil {
		it.Close()
		return fmt.Errorf("scan after recovery: %w", err)
	}
	if err := it.Close(); err != nil {
		return fmt.Errorf("scan close: %w", err)
	}
	if err := db.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants after recovery: %w", err)
	}
	probe := []byte("zz-post-crash-probe")
	if err := db.Put(probe, []byte("ok")); err != nil {
		return fmt.Errorf("put after recovery: %w", err)
	}
	if v, err := db.Get(probe); err != nil || string(v) != "ok" {
		return fmt.Errorf("get after recovery: %q, %v", v, err)
	}
	return nil
}

// ---------------------------------------------------------------------
// Corruption matrix.

// build writes the scripted history into fs and closes the store cleanly.
func (w Workload) build(fs vfs.FS) (*history, error) {
	db, err := w.open(fs, rotScript, true)
	if err != nil {
		return nil, fmt.Errorf("build open: %w", err)
	}
	h := newHistory()
	if err := rotScript.run(db, h); err != nil {
		_ = db.Close()
		return nil, fmt.Errorf("build: %w", err)
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("build close: %w", err)
	}
	return h, nil
}

// rotPoint is one corruption target in a built store.
type rotPoint struct {
	path string
	off  int64
}

// rotPoints enumerates the matrix points of a built store: for every
// durable file, its head bytes, interior fractions, and a dense tail
// region (footer slots, WAL block tails, the manifest's last records).
// MemFS.List is non-recursive, so a sharded store's shard-NNN
// subdirectories are enumerated explicitly alongside the root (which
// still contributes the SHARDS routing marker).
func (w Workload) rotPoints(fs vfs.FS) ([]rotPoint, error) {
	dirs := []string{"db"}
	for i := 0; i < w.Shards; i++ {
		dirs = append(dirs, fmt.Sprintf("db/shard-%03d", i))
	}
	var pts []rotPoint
	for _, dir := range dirs {
		names, err := fs.List(dir)
		if err != nil {
			return nil, err
		}
		sort.Strings(names)
		for _, name := range names {
			path := dir + "/" + name
			f, err := fs.Open(path)
			if err != nil {
				return nil, err
			}
			size, err := f.Size()
			_ = f.Close()
			if err != nil {
				return nil, err
			}
			offs := map[int64]bool{}
			for _, o := range []int64{0, 1, 2, size / 8, size / 4, size / 3, 3 * size / 8,
				size / 2, 5 * size / 8, 2 * size / 3, 3 * size / 4, 7 * size / 8} {
				if o < size {
					offs[o] = true
				}
			}
			for _, d := range []int64{1, 2, 3, 5, 9, 13, 17, 25, 33, 41, 48} {
				if size-d >= 0 {
					offs[size-d] = true
				}
			}
			sorted := make([]int64, 0, len(offs))
			for o := range offs {
				sorted = append(sorted, o)
			}
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			for _, o := range sorted {
				pts = append(pts, rotPoint{path: path, off: o})
			}
		}
	}
	return pts, nil
}

// RotPoints builds the store once and reports how many matrix points it
// exposes, for sizing a sweep.
func (w Workload) RotPoints() (int, error) {
	fs := vfs.NewMemFS()
	if _, err := w.build(fs); err != nil {
		return 0, err
	}
	pts, err := w.rotPoints(fs)
	return len(pts), err
}

// RotTrial builds the store, damages point index slot (mod the point
// count) — mode selects flip or zero damage — reopens and checks the
// verdict.  A non-nil error is a violation or an infrastructure failure.
func (w Workload) RotTrial(mode vfs.RotMode, slot int) error {
	fs := vfs.NewMemFS()
	h, err := w.build(fs)
	if err != nil {
		return err
	}
	pts, err := w.rotPoints(fs)
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		return fmt.Errorf("no corruption points in built store")
	}
	p := pts[slot%len(pts)]
	_, _, changed, err := vfs.CorruptByte(fs, p.path, p.off, mode)
	if err != nil {
		return fmt.Errorf("corrupt %s@%d: %w", p.path, p.off, err)
	}
	if err := w.reopenRotted(fs, h, changed); err != nil {
		return fmt.Errorf("%s %s@%d: %w", mode, p.path, p.off, err)
	}
	return nil
}

func (w Workload) reopenRotted(fs vfs.FS, h *history, changed bool) error {
	db, err := w.open(fs, rotScript, true)
	if err != nil {
		ce := iamdb.AsCorruption(err)
		switch {
		case ce == nil:
			return fmt.Errorf("open failed with untyped error: %v", err)
		case ce.Path == "":
			return fmt.Errorf("typed open failure names no file: %v", err)
		case !changed:
			return fmt.Errorf("open failed after provably harmless damage: %v", err)
		}
		return nil // detected loudly at open; acceptable outcome
	}
	defer db.Close()
	return rotVerdict(db, h, changed)
}

// rotVerdict checks the reopened store against the history with the
// forgiveness rules from the package comment.
func rotVerdict(db *iamdb.DB, h *history, changed bool) error {
	// Deferred violations: silent-loss findings that a detection
	// flagged by the end of the pass forgives.
	var forgivable []string

	for i := 0; i < rotScript.keys; i++ {
		k := fmt.Sprintf("key%04d", i)
		v, err := db.Get([]byte(k))
		want, acked := h.latest[k]
		switch {
		case err == nil:
			if string(v) == want && acked {
				continue
			}
			if !h.ever[k][string(v)] {
				return fmt.Errorf("key %s returned bytes never acknowledged: %q", k, v)
			}
			// A stale (historically acked) value: legal only once the
			// store flags corruption.
			forgivable = append(forgivable, fmt.Sprintf("key %s stale: %q, want %q", k, v, want))
		case err == iamdb.ErrNotFound:
			if acked {
				forgivable = append(forgivable, fmt.Sprintf("key %s missing, want %q", k, want))
			}
		case iamdb.IsCorruption(err):
			// The typed error is itself a detection; nothing to forgive.
		default:
			return fmt.Errorf("key %s read failed with untyped error: %v", k, err)
		}
	}

	it := db.NewIterator()
	for it.First(); it.Valid(); it.Next() {
		k, v := string(it.Key()), string(it.Value())
		if it.Err() != nil {
			// Lazy value resolution failed typed mid-scan; the error
			// check below classifies it.  The empty value it returned
			// was never served as data.
			break
		}
		if h.latest[k] == v {
			continue
		}
		if !h.ever[k][v] {
			it.Close()
			return fmt.Errorf("scan surfaced never-acknowledged %s=%q", k, v)
		}
		forgivable = append(forgivable, fmt.Sprintf("scan stale %s=%q", k, v))
	}
	if err := it.Err(); err != nil && !iamdb.IsCorruption(err) {
		it.Close()
		return fmt.Errorf("scan failed with untyped error: %v", err)
	}
	_ = it.Close()

	// Probe write: the store stays writable unless it has detected
	// damage and degraded.
	probeErr := db.Put([]byte("zz-post-rot-probe"), []byte("ok"))

	m := db.Metrics()
	detected := m.CorruptionsDetected > 0

	if !changed {
		// Harmless damage: the store must be bit-for-bit healthy.
		switch {
		case len(forgivable) > 0:
			return fmt.Errorf("harmless damage but state diverged: %s", forgivable[0])
		case detected || m.TablesQuarantined > 0:
			return fmt.Errorf("harmless damage but store reported %d detections, %d quarantined",
				m.CorruptionsDetected, m.TablesQuarantined)
		case probeErr != nil:
			return fmt.Errorf("harmless damage but probe write failed: %v", probeErr)
		}
		return nil
	}
	switch {
	case len(forgivable) > 0 && !detected:
		return fmt.Errorf("silent loss, nothing detected: %s (and %d more)", forgivable[0], len(forgivable)-1)
	case probeErr != nil && !detected:
		return fmt.Errorf("probe write failed with no detection: %v", probeErr)
	case probeErr != nil && !iamdb.IsCorruption(probeErr) && !errors.Is(probeErr, iamdb.ErrReadOnly):
		return fmt.Errorf("probe write failed with unexpected error: %v", probeErr)
	}
	return nil
}
