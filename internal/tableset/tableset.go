// Package tableset is the substrate both engine families stand on: levels
// of range-assigned table files published as immutable versions, the
// manifest that makes the placement durable, and the read paths over them.  The paper's point is
// that IAM, LSA and the leveled LSM baselines differ only in when a node
// flushes and whether its data moves by append or by merge (Sec. 4-5);
// everything underneath is common ground, and this package is that ground.
//
// One rule covers every engine: level 0 may hold overlapping tables and is
// ordered by file number (oldest first); levels >= 1 hold disjoint ranges
// sorted by range.  The LSA/IAM trees keep level 0 empty (their L0 is the
// memtable), so nothing here branches on which engine is calling.
//
// Two durability orderings are enforced here and nowhere else:
//   - sync-before-edit: Build hands out a table only once its file is
//     synced, so no manifest edit can name unwritten data;
//   - edit-before-delete: Apply removes a dropped table's file only after
//     the edit that stops naming it is durable, so the manifest never
//     names a missing file.
package tableset

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"iamdb/internal/cache"
	"iamdb/internal/corrupt"
	"iamdb/internal/invariants"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/manifest"
	"iamdb/internal/metrics"
	"iamdb/internal/table"
	"iamdb/internal/vfs"
)

// ErrLayout reports a manifest that places tables on a level the opening
// engine cannot hold — a directory written by one engine family opened as
// the other.  Open returns it before touching the manifest, so the
// directory stays readable by the engine that wrote it.
var ErrLayout = errors.New("tableset: manifest layout does not fit this engine")

const manifestName = "MANIFEST"

// Config parameterizes a Set.
type Config struct {
	FS    vfs.FS
	Dir   string
	Cache *cache.Cache
	// BitsPerKey and Compression are the table options every file of the
	// set is created and opened with.
	BitsPerKey  int
	Compression bool
	// Events receives ManifestEdit, TableCreated and TableDeleted.
	Events *metrics.EventListener

	// MinLevel is the shallowest level the engine places tables on, and
	// MaxLevels the fixed number of level slots (0: the set grows on
	// demand).  A manifest naming a table outside [MinLevel, MaxLevels)
	// fails Open with ErrLayout; the manifest records MaxLevels, or the
	// current slot count, less MinLevel as its level count.
	MinLevel, MaxLevels int
}

// Table is one placement of a table file: the file, the range assigned to
// it — which always covers the table's data but may be wider (the trees
// assign ranges; the LSM baselines use the data bounds) — and the number
// of sequences the file held when the placement was published.  A Table is
// immutable: Apply re-ranges a file, and Appended counts its new sequence,
// by publishing another Table of the same file, so one read off a level
// stays what it was and is refreshed by reading the level again.
type Table struct {
	*file
	rng kv.Range
	// hi is the fence of rng.Hi: what find searches.
	hi   uint64
	nseq int
}

// newPlacement places f with the range rng and nseq sequences.
func newPlacement(f *file, rng kv.Range, nseq int) *Table {
	return &Table{file: f, rng: rng, hi: kv.Fence(rng.Hi), nseq: nseq}
}

// file is a table file as the set holds it, shared by its placements.
type file struct {
	*table.Table
	// The versions naming the file are numbered born..last: born is the
	// first version published after the file was made, last is set, under
	// Set.vmu, by the change that drops it.
	born, last uint64
	// fence is why the table is quarantined, nil while it is not.  A
	// quarantined table keeps serving whatever reads still succeed, but
	// engines never pick it as compaction input and do not count it toward
	// their triggers (an uncompactable table would otherwise wedge their
	// schedulers).
	fence atomic.Pointer[string]
}

// Quarantined reports the fence.
func (tb *Table) Quarantined() bool { return tb.fence.Load() != nil }

// Range returns the assigned range of this placement.
func (tb *Table) Range() kv.Range { return tb.rng }

// version is the table set at one moment: every level's placements, in
// level order.  It is frozen once published through Set.cur; a change
// publishes a successor that shares the levels it left alone.
type version struct {
	levels [][]*Table
	num    uint64       // versions are numbered in the order published
	refs   atomic.Int32 // one for being current, one per reader
}

// newVersion returns an unpublished successor of v holding v's levels.
func newVersion(v *version) *version {
	nv := &version{levels: slices.Clone(v.levels), num: v.num + 1}
	nv.refs.Store(1)
	return nv
}

// find returns the table of lvl, a level >= 1, whose range contains
// ukey.  It binary-searches the placements' fences for the first range
// ending at or above ukey and compares full keys only where a fence ties
// with ukey's.
func find(lvl []*Table, ukey []byte) *Table {
	f := kv.Fence(ukey)
	i, j := 0, len(lvl)
	for i < j {
		h := int(uint(i+j) >> 1)
		if lvl[h].hi < f || lvl[h].hi == f && kv.CompareUser(ukey, lvl[h].rng.Hi) > 0 {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(lvl) && !lvl[i].rng.Empty() && kv.CompareUser(lvl[i].rng.Lo, ukey) <= 0 {
		return lvl[i]
	}
	return nil
}

// Set is the table set.  What it holds is one immutable version behind an
// atomic pointer.  Writers are the engines: with Mu held they read the
// current version (the methods documented "caller holds Mu" are their
// structural vocabulary), Build tables, and publish every change of
// placement through Apply, which swaps in a successor version (so do Grow
// and Appended).  Readers — Get, NewIter, the reporting methods — take no
// lock: they pin the current version with one reference, read its slices
// and let go, so a read never waits for a cascade and an iterator stays the
// point-in-time view it pinned (ranges and sequence counts included: the
// trees append to live tables in place).  A table file's handle closes,
// and its cache blocks go, when the last version naming it is released:
// for a dropped table that is the drop itself unless a reader still pins
// an older version, and then it is that reader's release.
// Filesystem-layer locks nest below Mu (manifest rotation renames under
// it), and the trace recorder's ring lock is a leaf the engines take
// while holding it.  vmu, the ledger of version lifetimes, is a leaf
// below Mu that readers take alone, and only when they release the last
// reference of a superseded version:
//
//iamlint:lockorder tableset.Set.Mu < vfs.*; tableset.Set.Mu < trace.Recorder.mu; tableset.Set.Mu < tableset.Set.vmu
type Set struct {
	Mu  sync.Mutex
	cfg Config

	cur atomic.Pointer[version]
	// vmu guards live, the numbers of the versions not yet released
	// (oldest first, the current one last), and dead, the tables a change
	// dropped whose handles are still open.
	vmu  sync.Mutex
	live []uint64
	dead []*Table

	nextFile uint64
	// nextFileMoved: Build took a file number the manifest has not been
	// told about; the next edit of Apply records the counter.
	nextFileMoved bool
	man           *manifest.Log // nil in a read-only set
	horizon       kv.Seq
	logSeq        kv.Seq
	logNum        uint64
	// recoveryDropped is the byte count the manifest replay discarded at
	// its tail on open (a torn final append).
	recoveryDropped int64
}

// pin returns the current version with a reference taken: its tables stay
// open until unpin.  A version whose count reached zero is never revived,
// so the loop retries on the successor that replaced it.
func (s *Set) pin() *version {
	for {
		v := s.cur.Load()
		for n := v.refs.Load(); n > 0; n = v.refs.Load() {
			if v.refs.CompareAndSwap(n, n+1) {
				return v
			}
		}
	}
}

// unpin gives back one reference.  The last one out retires the version:
// every dropped table that no unreleased version names any more has its
// blocks evicted — here and not at the drop, or a reader that still
// pinned the table would put blocks back behind the eviction — and its
// handle closed (a read-only handle by then; nothing is left to flush).
func (s *Set) unpin(v *version) {
	if v.refs.Add(-1) != 0 {
		return
	}
	var gone []*Table
	s.vmu.Lock()
	s.live = slices.DeleteFunc(s.live, func(n uint64) bool { return n == v.num })
	s.dead = slices.DeleteFunc(s.dead, func(tb *Table) bool {
		named := slices.ContainsFunc(s.live, func(n uint64) bool { return tb.born <= n && n <= tb.last })
		if !named {
			gone = append(gone, tb)
		}
		return !named
	})
	s.vmu.Unlock()
	for _, tb := range gone {
		tb.EvictBlocks()
		_ = tb.Close()
	}
}

// publish makes nv, built from the current version, the current one.  The
// tables in dropped are those nv no longer names.  Caller holds Mu.
func (s *Set) publish(nv *version, dropped ...*Table) {
	old := s.cur.Load()
	s.vmu.Lock()
	s.live = append(s.live, nv.num)
	for _, tb := range dropped {
		tb.last = old.num
	}
	s.dead = append(s.dead, dropped...)
	s.vmu.Unlock()
	s.cur.Store(nv)
	s.unpin(old)
}

// Open creates or reopens the table set in cfg.Dir and compacts its
// manifest.
func Open(cfg Config) (*Set, error) {
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, err
	}
	s, existed, err := load(cfg)
	if err != nil {
		return nil, err
	}
	if existed {
		err = s.rewriteManifest()
	} else {
		s.man, err = manifest.Create(cfg.FS, s.manifestPath(), s.snapshot())
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// OpenReadOnly loads the set an existing manifest names without writing
// anything, for tooling that inspects a directory whatever engine wrote
// it (leave MinLevel and MaxLevels zero).  Mutating methods must not be
// called on the result.
func OpenReadOnly(cfg Config) (*Set, error) {
	s, existed, err := load(cfg)
	if err == nil && !existed {
		return nil, fmt.Errorf("tableset: no manifest in %s: %w", cfg.Dir, vfs.ErrNotFound)
	}
	return s, err
}

// load replays the manifest, if there is one, and opens every table it
// names.  It never drops a table: a populated level outside the
// configured bounds is ErrLayout, checked before any file is opened.
func load(cfg Config) (s *Set, existed bool, err error) {
	cfg.Events = cfg.Events.EnsureDefaults()
	s = &Set{cfg: cfg, horizon: kv.MaxSeq, nextFile: 1, live: []uint64{1}}
	slots := max(cfg.MaxLevels, cfg.MinLevel+1)
	if !cfg.FS.Exists(s.manifestPath()) {
		s.cur.Store(newVersion(&version{levels: make([][]*Table, slots)}))
		return s, false, nil
	}
	st, dropped, err := manifest.Replay(cfg.FS, s.manifestPath())
	if err != nil {
		return nil, true, err
	}
	s.recoveryDropped = dropped
	s.nextFile, s.logSeq, s.logNum = st.NextFile, st.LastSeq, st.LogNum
	for lvl, recs := range st.Levels {
		if len(recs) > 0 && (lvl < cfg.MinLevel || cfg.MaxLevels > 0 && lvl >= cfg.MaxLevels) {
			return nil, true, fmt.Errorf("%w: %s places table %06d on level %d",
				ErrLayout, s.manifestPath(), recs[0].FileNum, lvl)
		}
	}
	if cfg.MaxLevels == 0 {
		slots = max(slots, st.NumLevels+cfg.MinLevel, len(st.Levels))
	}
	levels := make([][]*Table, slots)
	for lvl, recs := range st.Levels {
		for _, rec := range recs {
			tbl, err := table.Open(cfg.FS, s.path(rec.FileNum), rec.FileNum, s.tableOptions())
			if err != nil {
				if errors.Is(err, vfs.ErrNotFound) {
					// A manifest that references a table the directory no
					// longer holds is store corruption (typically a rotted
					// manifest record rolling state back past the table's
					// deletion), not a plain I/O failure.
					err = corrupt.New(corrupt.LayerManifest, s.path(rec.FileNum), -1,
						manifest.ErrCorrupt, "manifest references a missing table file")
				}
				return nil, true, fmt.Errorf("tableset: open table %d: %w", rec.FileNum, err)
			}
			tb := newPlacement(&file{Table: tbl, born: 1}, kv.MakeRange(rec.Lo, rec.Hi), tbl.NumSeqs())
			if serr := tbl.Suspect(); serr != nil {
				// Opened on a fallback footer slot or with other evidence
				// of damage: keep the table readable but fenced.
				reason := serr.Error()
				tb.fence.Store(&reason)
			}
			levels[lvl] = insert(levels[lvl], lvl, tb)
		}
	}
	s.cur.Store(newVersion(&version{levels: levels}))
	return s, true, nil
}

func (s *Set) manifestPath() string { return s.cfg.Dir + "/" + manifestName }

func (s *Set) path(num uint64) string { return TableFileName(s.cfg.Dir, num) }

// TableFileName builds the canonical table file name for a file number.
func TableFileName(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.mst", dir, num)
}

// TableFileNum is TableFileName's inverse: the file number in a path like
// "dir/000123.mst", so a corruption error's provenance can be mapped back
// to the table to quarantine.
func TableFileNum(path string) (uint64, bool) {
	base, ok := strings.CutSuffix(path[strings.LastIndexByte(path, '/')+1:], ".mst")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	return n, err == nil
}

func (s *Set) tableOptions() table.Options {
	return table.Options{Cache: s.cfg.Cache, BitsPerKey: s.cfg.BitsPerKey, Compression: s.cfg.Compression}
}

func (s *Set) snapshot() *manifest.State {
	levels := s.cur.Load().levels
	st := &manifest.State{
		NextFile: s.nextFile, LastSeq: s.logSeq, LogNum: s.logNum,
		NumLevels: len(levels) - s.cfg.MinLevel,
		Levels:    make([][]manifest.NodeRecord, len(levels)),
	}
	for lvl, tables := range levels {
		for _, tb := range tables {
			st.Levels[lvl] = append(st.Levels[lvl], record(lvl, tb))
		}
	}
	return st
}

// rewriteManifest replaces the manifest with a snapshot of the in-memory
// state.  The new file is built beside the old one and renamed into
// place, so a crash in between leaves the old (consistent) one in force.
func (s *Set) rewriteManifest() error {
	man, err := manifest.Create(s.cfg.FS, s.manifestPath()+".tmp", s.snapshot())
	if err != nil {
		return err
	}
	if err := s.cfg.FS.Rename(s.manifestPath()+".tmp", s.manifestPath()); err != nil {
		_ = man.Close()
		return err
	}
	if s.man != nil {
		_ = s.man.Close()
	}
	s.man, s.nextFileMoved = man, false // the snapshot names the counter
	return nil
}

// Resume rewrites the manifest from the in-memory state, healing any
// divergence left by a failed or torn manifest append.  The DB layer
// calls it before retrying failed background work.
func (s *Set) Resume() error {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.rewriteManifest()
}

// RecoveryDropped reports the manifest bytes dropped as a torn tail
// during Open; >0 means the recovered state may lag the last acknowledged
// edit and the DB layer flags it as suspected corruption.
func (s *Set) RecoveryDropped() int64 { return s.recoveryDropped }

// SetHorizon records the oldest snapshot still active, so merges know
// which record versions remain reachable.
func (s *Set) SetHorizon(h kv.Seq) {
	s.Mu.Lock()
	s.horizon = h
	s.Mu.Unlock()
}

// Horizon returns the last SetHorizon value; caller holds Mu.
func (s *Set) Horizon() kv.Seq { return s.horizon }

// SetLogMeta durably records the DB layer's WAL position.
func (s *Set) SetLogMeta(lastSeq kv.Seq, logNum uint64) error {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	s.logSeq, s.logNum = lastSeq, logNum
	return s.commit(&manifest.Edit{
		LastSeq: lastSeq, SetLastSeq: true,
		LogNum: logNum, SetLogNum: true,
		NextFile: s.nextFile, SetNextFile: true,
	})
}

// LogMeta returns the recorded WAL position.
func (s *Set) LogMeta() (kv.Seq, uint64) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.logSeq, s.logNum
}

// ---------------------------------------------------------------------
// Structural vocabulary: every method in this section is called with Mu
// held.

// NumLevels returns the number of level slots, level 0 included.
func (s *Set) NumLevels() int { return len(s.cur.Load().levels) }

// Level returns level i's tables in level order, as the current version
// has them: the slice is never written again, and Apply publishes another.
func (s *Set) Level(i int) []*Table { return s.cur.Load().levels[i] }

// Grow opens a new empty deepest level and records the new level count.
func (s *Set) Grow() error {
	nv := newVersion(s.cur.Load())
	nv.levels = append(nv.levels, nil)
	s.publish(nv)
	return s.commit(&manifest.Edit{NumLevels: len(nv.levels) - s.cfg.MinLevel, SetLevels: true})
}

// Appended publishes the sequence an in-place append has just added to
// tb, a table of level: new readers see the table with it, those that
// pinned an earlier version without.  No edit goes to the manifest; the
// append committed in the table's own metadata.
func (s *Set) Appended(level int, tb *Table) {
	nv := newVersion(s.cur.Load())
	lvl := slices.Clone(nv.levels[level])
	j := slices.IndexFunc(lvl, func(e *Table) bool { return e.file == tb.file })
	lvl[j] = &Table{file: tb.file, rng: lvl[j].rng, hi: lvl[j].hi, nseq: tb.NumSeqs()}
	nv.levels[level] = lvl
	s.publish(nv)
}

// Change is one structural step, stated as placement and nothing else:
// these tables leave these levels, these tables arrive on these levels
// with these ranges.  A table named on both sides moves, or is re-ranged
// where it stands, and stays the set's.
type Change struct {
	drops, places []placement
}

type placement struct {
	level int
	tb    *Table
	rng   kv.Range // of an arrival
}

// Drop takes tables off level.
func (c *Change) Drop(level int, tables ...*Table) *Change {
	for _, tb := range tables {
		c.drops = append(c.drops, placement{level: level, tb: tb})
	}
	return c
}

// Place puts tables on level with the ranges they have: the data span
// for a table fresh from Build, the current range for one that moves.
func (c *Change) Place(level int, tables ...*Table) *Change {
	for _, tb := range tables {
		c.PlaceAs(level, tb, tb.rng)
	}
	return c
}

// PlaceAs puts tb on level with the assigned range rng, which must cover
// the table's data.
func (c *Change) PlaceAs(level int, tb *Table, rng kv.Range) *Change {
	c.places = append(c.places, placement{level, tb, rng})
	return c
}

// Apply publishes c, in this order:
//
//  1. a successor of the current version is built: the drops leave copies
//     of their levels and each arrival joins the copy of its level, with
//     its range and the sequence count its file has now, where the level's
//     order puts it (file number on level 0, range low end below);
//  2. manifest: one edit — the drops as deletions and the arrivals as
//     additions, both in the order stated, plus the file counter if Build
//     moved it since the manifest last named it — is appended and synced;
//  3. the successor becomes the current version, and every dropped table
//     c does not place again loses, only if the edit is durable, its file:
//     a crash between a durable remove and an unsynced edit would leave
//     the manifest naming a missing file and the set unopenable.  After a
//     failed edit the file stays: an orphan wastes space but cannot be
//     resurrected (recovery loads only files the manifest names), and
//     Resume rewrites the manifest from memory anyway.  The handle of a
//     dropped table outlives this by as long as a reader pins a version
//     that names it (see unpin).
//
// The edit's error is returned; memory keeps the change either way.
// Apply neither refuses nor repairs a level >= 1 whose ranges overlap.
func (s *Set) Apply(c *Change) error {
	old := s.cur.Load()
	nv := newVersion(old)
	// own returns nv's private copy of a level, made at its first change.
	var copied uint64
	own := func(level int) []*Table {
		if copied&(1<<level) == 0 {
			copied |= 1 << level
			nv.levels[level] = append(make([]*Table, 0, len(old.levels[level])+len(c.places)), old.levels[level]...)
		}
		return nv.levels[level]
	}
	e := &manifest.Edit{}
	gone := make([]*Table, 0, len(c.drops)) // dropped and not placed again: no longer the set's
	for _, d := range c.drops {
		lvl := own(d.level)
		j := slices.IndexFunc(lvl, func(tb *Table) bool { return tb.file == d.tb.file })
		if invariants.Enabled {
			invariants.Assertf(j >= 0, "table %d dropped from level %d, where it is not", d.tb.ID(), d.level)
		}
		if j >= 0 {
			nv.levels[d.level] = slices.Delete(lvl, j, j+1)
		}
		e.Deleted = append(e.Deleted, manifest.NodeRef{Level: d.level, FileNum: d.tb.ID()})
		if !slices.ContainsFunc(c.places, func(p placement) bool { return p.tb.file == d.tb.file }) {
			gone = append(gone, d.tb)
		}
	}
	for j, p := range c.places {
		if invariants.Enabled {
			twice := slices.ContainsFunc(c.places[:j], func(q placement) bool { return q.tb.file == p.tb.file })
			invariants.Assertf(!twice, "table %d placed twice", p.tb.ID())
		}
		tb := newPlacement(p.tb.file, p.rng, p.tb.NumSeqs())
		nv.levels[p.level] = insert(own(p.level), p.level, tb)
		e.Added = append(e.Added, record(p.level, tb))
	}
	if s.nextFileMoved {
		e.NextFile, e.SetNextFile = s.nextFile, true
	}
	err := s.commit(e)
	s.publish(nv, gone...)
	for _, tb := range gone {
		s.cfg.Events.TableDeleted(metrics.TableInfo{FileNum: tb.ID(), Level: -1, Bytes: tb.DataSize()})
		if err == nil {
			_ = s.cfg.FS.Remove(s.path(tb.ID()))
		}
	}
	return err
}

// commit announces e and appends it to the manifest: the one place an
// edit is written, for Apply, Grow and SetLogMeta alike.
func (s *Set) commit(e *manifest.Edit) error {
	s.cfg.Events.ManifestEdit(metrics.ManifestEditInfo{Adds: len(e.Added), Deletes: len(e.Deleted)})
	err := s.man.Append(e)
	if err == nil && e.SetNextFile {
		s.nextFileMoved = false
	}
	return err
}

// insert puts tb into lvl, level i in level order, where that order has
// it: by file number on level 0, by range low end below.
func insert(lvl []*Table, i int, tb *Table) []*Table {
	at := sort.Search(len(lvl), func(j int) bool {
		if i == 0 {
			return lvl[j].ID() > tb.ID()
		}
		return kv.CompareUser(lvl[j].rng.Lo, tb.rng.Lo) > 0
	})
	return slices.Insert(lvl, at, tb)
}

// ActiveCount counts level i's tables eligible for compaction work, i.e.
// not quarantined.
func (s *Set) ActiveCount(i int) int {
	n := 0
	for _, tb := range s.Level(i) {
		if !tb.Quarantined() {
			n++
		}
	}
	return n
}

// record renders tb's placement on level lvl as a manifest record.
func record(lvl int, tb *Table) manifest.NodeRecord {
	return manifest.NodeRecord{Level: lvl, FileNum: tb.ID(), Lo: tb.rng.Lo, Hi: tb.rng.Hi}
}

// Build creates the next table file, writes src into it as one sorted
// sequence (nil leaves the table empty) and syncs it: a *Table exists
// only once its file is durable, which is the sync-before-edit rule.  A
// failed build removes its half-written file.  The table comes back on no
// level, with its range set to its data span.
func (s *Set) Build(capacity int64, src iterator.Iterator) (*Table, int64, error) {
	num := s.nextFile
	s.nextFile, s.nextFileMoved = num+1, true
	tbl, err := table.Create(s.cfg.FS, s.path(num), num, capacity, s.tableOptions())
	if err != nil {
		return nil, 0, err
	}
	var res table.AppendResult
	if src != nil {
		res, err = tbl.Append(src)
	}
	if err == nil {
		err = tbl.Sync()
	}
	if err != nil {
		// The write or sync failure is the error that matters.
		_ = tbl.Close()
		_ = s.cfg.FS.Remove(s.path(num))
		return nil, 0, err
	}
	s.cfg.Events.TableCreated(metrics.TableInfo{FileNum: num, Level: -1, Bytes: res.Bytes})
	f := &file{Table: tbl, born: s.cur.Load().num + 1}
	return newPlacement(f, tbl.UserRange(), tbl.NumSeqs()), res.Bytes, nil
}

// BuildRuns drains a positioned iterator into fresh tables of at most
// limit data bytes each (finishing the current user key, so all versions
// of a key share one table), returning them (ranges = data spans) and the
// total bytes written.  Each run is gathered in memory first so its
// file can be sized to fit even when a single key's version chain exceeds
// the limit: the capacity is max(floorCapacity, bytes + bytes/2 + 64 KiB).
// The trees pass their append-hole capacity as the floor; the LSM
// baselines, whose files are never appended to, pass 0.
func (s *Set) BuildRuns(it iterator.Iterator, limit, floorCapacity int64) ([]*Table, int64, error) {
	var tables []*Table
	var total int64
	// One gather serves all the runs of this call: a record is copied
	// once, into storage the previous run has finished with.
	g := kv.NewGather()
	defer g.Release()
	var lastUser []byte
	for it.Valid() {
		g.Reset()
		lastUser = lastUser[:0]
		var bytes int64
		for ; it.Valid(); it.Next() {
			u := kv.UserKey(it.Key())
			if bytes >= limit && string(u) != string(lastUser) {
				break
			}
			g.Add(it.Key(), it.Value())
			bytes += int64(len(it.Key()) + len(it.Value()))
			lastUser = append(lastUser[:0], u...)
		}
		if err := it.Err(); err != nil {
			return tables, total, err
		}
		if len(g.Keys) == 0 {
			break
		}
		capacity := max(floorCapacity, bytes+bytes/2+64*1024)
		tb, written, err := s.Build(capacity, iterator.NewSlice(kv.CompareInternal, g.Keys, g.Vals))
		if err != nil {
			return tables, total, err
		}
		total += written
		tables = append(tables, tb)
	}
	// An iterator whose very first position failed never enters the
	// loop above: without this check a corrupt input would read as
	// empty and the merge would silently discard its input's data.
	if err := it.Err(); err != nil {
		return tables, total, err
	}
	return tables, total, nil
}

// ---------------------------------------------------------------------
// Reads and reporting: none of these takes Mu.

// Get finds the newest version of ukey visible at snapshot snap: level 0
// tables newest first, then at most one table per deeper level, found by
// a search of its fences, and within a table its sequences newest first
// behind their Bloom filters, probed with one hash of ukey (Sec. 5.2).
func (s *Set) Get(ukey []byte, snap kv.Seq) ([]byte, kv.Kind, kv.Seq, bool, error) {
	v := s.pin()
	defer s.unpin(v)
	p := table.NewProbe(ukey, snap)
	defer p.Release()
	for l0, i := v.levels[0], len(v.levels[0])-1; i >= 0; i-- {
		if l0[i].rng.Contains(ukey) {
			if val, k, sq, found, err := l0[i].Find(p); found || err != nil {
				return val, k, sq, found, err
			}
		}
	}
	for l := 1; l < len(v.levels); l++ {
		if tb := find(v.levels[l], ukey); tb != nil {
			if val, k, sq, found, err := tb.Find(p); found || err != nil {
				return val, k, sq, found, err
			}
		}
	}
	return nil, 0, 0, false, nil
}

// NewIter returns a merged iterator over all on-disk data: every level 0
// table is its own child (their ranges overlap), each deeper level is one
// concatenating child, so a scan consults at most one table per level
// below 0.  The children read the slices of the version current now, each
// holding a reference on it until it is closed.
func (s *Set) NewIter() iterator.ReverseIterator {
	v := s.pin()
	defer s.unpin(v)
	var kids []iterator.Iterator
	for l0, i := v.levels[0], len(v.levels[0])-1; i >= 0; i-- {
		kids = append(kids, s.newLevelIter(v, l0[i:i+1]))
	}
	for _, lvl := range v.levels[1:] {
		if len(lvl) > 0 {
			kids = append(kids, s.newLevelIter(v, lvl))
		}
	}
	return iterator.NewMerging(kv.CompareInternal, kids...)
}

// LevelInfo summarizes one level for reporting.
type LevelInfo struct {
	Level int
	Nodes int
	Bytes int64 // data bytes stored
	Seqs  int   // total sorted sequences across nodes
	// Quarantined counts nodes fenced off after detected corruption
	// (still readable, never chosen as compaction input).
	Quarantined int
}

// Add folds o's counts into l; l keeps its Level.
func (l *LevelInfo) Add(o LevelInfo) {
	l.Nodes += o.Nodes
	l.Bytes += o.Bytes
	l.Seqs += o.Seqs
	l.Quarantined += o.Quarantined
}

func (l LevelInfo) String() string {
	s := fmt.Sprintf("L%d: %d nodes, %d seqs, %.1f MiB",
		l.Level, l.Nodes, l.Seqs, float64(l.Bytes)/(1<<20))
	if l.Quarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", l.Quarantined)
	}
	return s
}

// Levels summarizes the shape of the levels the engine places tables on.
func (s *Set) Levels() []LevelInfo {
	v := s.pin()
	defer s.unpin(v)
	out := make([]LevelInfo, 0, len(v.levels))
	for i := s.cfg.MinLevel; i < len(v.levels); i++ {
		info := LevelInfo{Level: i, Nodes: len(v.levels[i])}
		for _, tb := range v.levels[i] {
			info.Bytes += tb.DataSize()
			info.Seqs += tb.NumSeqs()
			if tb.Quarantined() {
				info.Quarantined++
			}
		}
		out = append(out, info)
	}
	return out
}

// SpaceUsed reports on-disk bytes (data + metadata, holes free).
func (s *Set) SpaceUsed() int64 {
	var n int64
	_ = s.VisitTables(func(_ int, _ uint64, t *table.Table) error {
		n += t.UsedBytes()
		return nil
	})
	return n
}

// ApproximateSize estimates the data bytes stored in the user-key range
// [lo, hi]: full sizes for tables entirely inside, halves for boundary
// overlaps.
func (s *Set) ApproximateSize(lo, hi []byte) int64 {
	rng := kv.MakeRange(lo, hi)
	v := s.pin()
	defer s.unpin(v)
	var total int64
	for _, lvl := range v.levels {
		for _, tb := range lvl {
			switch {
			case !tb.rng.Overlaps(rng):
			case rng.Contains(tb.rng.Lo) && rng.Contains(tb.rng.Hi):
				total += tb.DataSize()
			default:
				total += tb.DataSize() / 2
			}
		}
	}
	return total
}

// Quarantine fences the table with file number num, reporting whether the
// mark is new (false when already quarantined or unknown to the set).
// The DB layer quarantines on detected corruption, so background work
// neither loops on an unreadable file nor rewrites (and thereby discards)
// a partially readable one before an operator intervenes.
func (s *Set) Quarantine(num uint64, reason string) bool {
	v := s.pin()
	defer s.unpin(v)
	for _, lvl := range v.levels {
		for _, tb := range lvl {
			if tb.ID() == num {
				return tb.fence.CompareAndSwap(nil, &reason)
			}
		}
	}
	return false
}

// QuarantineInfo identifies one quarantined table for reporting.
type QuarantineInfo struct {
	Level   int
	FileNum uint64
	Path    string
	Reason  string
}

// Quarantined lists the currently fenced tables.
func (s *Set) Quarantined() []QuarantineInfo {
	v := s.pin()
	defer s.unpin(v)
	var out []QuarantineInfo
	for i, lvl := range v.levels {
		for _, tb := range lvl {
			if reason := tb.fence.Load(); reason != nil {
				out = append(out, QuarantineInfo{
					Level: i, FileNum: tb.ID(), Path: s.path(tb.ID()), Reason: *reason,
				})
			}
		}
	}
	return out
}

// VisitTables walks the tables of the version current now, which stays
// pinned meanwhile, for offline-style verification (DB.Scrub).  fn runs
// beside flushes, not instead of them; returning an error stops the walk.
func (s *Set) VisitTables(fn func(level int, num uint64, t *table.Table) error) error {
	v := s.pin()
	defer s.unpin(v)
	for i, lvl := range v.levels {
		for _, tb := range lvl {
			if err := fn(i, tb.ID(), tb.Table); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close releases every table handle of the current version and the
// manifest.  The set must be reopenable from its manifest afterwards.
func (s *Set) Close() error {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	var errs []error
	for _, lvl := range s.cur.Load().levels {
		for _, tb := range lvl {
			errs = append(errs, tb.Close())
		}
	}
	if s.man != nil {
		errs = append(errs, s.man.Close())
	}
	return errors.Join(errs...)
}
