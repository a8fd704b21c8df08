// Package tableset is the substrate both engine families stand on: levels
// of refcounted, range-assigned table files, the manifest that makes the
// placement durable, and the read paths over them.  The paper's point is
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

// Table is one table file placed in the set: the MSTable plus its
// assigned range, which always covers the table's data but may be wider
// (the trees assign ranges; the LSM baselines use the data bounds).
type Table struct {
	*table.Table
	// rng is guarded by Set.Mu.  It starts as the manifest's record (load)
	// or the data span (Build); after that only Apply writes it.
	rng  kv.Range
	refs int32 // guarded by Set.Mu; the handle closes at zero
	// quarantined fences the table after detected corruption: it keeps
	// serving whatever reads still succeed, but engines never pick it as
	// compaction input and do not count it toward their triggers (an
	// uncompactable table would otherwise wedge their schedulers).
	quarantined bool
	qreason     string
}

// Quarantined reports the fence; caller holds Set.Mu.
func (tb *Table) Quarantined() bool { return tb.quarantined }

// Range returns the assigned range; caller holds Set.Mu.  A reader that
// outlives Mu keeps the value it read under it (see tableView): Apply
// replaces the range, it never writes through the slices handed out here.
func (tb *Table) Range() kv.Range { return tb.rng }

// Set is the table set.  Methods documented "caller holds Mu" are the
// engines' structural vocabulary: they read the levels, Build tables and
// publish every change of placement through Apply.  Every other method
// takes Mu itself and is safe for concurrent use.  Reads go through table
// handles pinned by reference counts, so they hold Mu only to pick their
// tables; a view that outlives Mu is the tables, ranges and sequence
// counts captured under it (the trees append to live tables in place,
// see tableView).
// Filesystem-layer locks nest below Mu (manifest rotation renames under
// it), and the trace recorder's ring lock is a leaf the engines take
// while holding it:
//
//iamlint:lockorder tableset.Set.Mu < vfs.*; tableset.Set.Mu < trace.Recorder.mu
type Set struct {
	Mu  sync.Mutex
	cfg Config

	levels   [][]*Table
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
	s = &Set{cfg: cfg, horizon: kv.MaxSeq, nextFile: 1}
	slots := max(cfg.MaxLevels, cfg.MinLevel+1)
	if !cfg.FS.Exists(s.manifestPath()) {
		s.levels = make([][]*Table, slots)
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
	s.levels = make([][]*Table, slots)
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
			tb := &Table{Table: tbl, rng: kv.MakeRange(rec.Lo, rec.Hi), refs: 1}
			if serr := tbl.Suspect(); serr != nil {
				// Opened on a fallback footer slot or with other evidence
				// of damage: keep the table readable but fenced.
				tb.quarantined, tb.qreason = true, serr.Error()
			}
			s.levels[lvl] = append(s.levels[lvl], tb)
		}
	}
	for lvl := range s.levels {
		s.sortLevel(lvl)
	}
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
	st := &manifest.State{
		NextFile: s.nextFile, LastSeq: s.logSeq, LogNum: s.logNum,
		NumLevels: len(s.levels) - s.cfg.MinLevel,
		Levels:    make([][]manifest.NodeRecord, len(s.levels)),
	}
	for lvl, tables := range s.levels {
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
func (s *Set) RecoveryDropped() int64 {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.recoveryDropped
}

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
func (s *Set) NumLevels() int { return len(s.levels) }

// Level returns level i's tables in level order.  The slice is the live
// one: read it under Mu; only Apply changes it.
func (s *Set) Level(i int) []*Table { return s.levels[i] }

// Grow opens a new empty deepest level and records the new level count.
func (s *Set) Grow() error {
	s.levels = append(s.levels, nil)
	return s.commit(&manifest.Edit{NumLevels: len(s.levels) - s.cfg.MinLevel, SetLevels: true})
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
//  1. memory: the drops leave their levels, each arrival takes its range
//     and joins its level, and the levels that gained a table are put
//     back in order (file number on level 0, range low end below);
//  2. manifest: one edit — the drops as deletions and the arrivals as
//     additions, both in the order stated, plus the file counter if Build
//     moved it since the manifest last named it — is appended and synced;
//  3. release: every dropped table c does not place again loses the
//     set's reference (the handle closes once the last reader lets go)
//     and, only if the edit is durable, its file: a crash between a
//     durable remove and an unsynced edit would leave the manifest naming
//     a missing file and the set unopenable.  After a failed edit the file
//     stays: an orphan wastes space but cannot be resurrected (recovery
//     loads only files the manifest names), and Resume rewrites the
//     manifest from memory anyway.
//
// The edit's error is returned; memory keeps the change either way.
// Apply neither refuses nor repairs a level >= 1 whose ranges overlap.
func (s *Set) Apply(c *Change) error {
	e := &manifest.Edit{}
	for _, d := range c.drops {
		found := s.remove(d.level, d.tb)
		if invariants.Enabled {
			invariants.Assertf(found, "table %d dropped from level %d, where it is not", d.tb.ID(), d.level)
		}
		e.Deleted = append(e.Deleted, manifest.NodeRef{Level: d.level, FileNum: d.tb.ID()})
	}
	for j, p := range c.places {
		if invariants.Enabled {
			twice := slices.ContainsFunc(c.places[:j], func(q placement) bool { return q.tb == p.tb })
			invariants.Assertf(!twice, "table %d placed twice", p.tb.ID())
		}
		p.tb.rng = p.rng
		s.levels[p.level] = append(s.levels[p.level], p.tb)
		e.Added = append(e.Added, record(p.level, p.tb))
		if j+1 == len(c.places) || c.places[j+1].level != p.level {
			s.sortLevel(p.level)
		}
	}
	if s.nextFileMoved {
		e.NextFile, e.SetNextFile = s.nextFile, true
	}
	err := s.commit(e)
	for _, d := range c.drops {
		if slices.ContainsFunc(c.places, func(p placement) bool { return p.tb == d.tb }) {
			continue // moved or re-ranged: still the set's
		}
		s.cfg.Events.TableDeleted(metrics.TableInfo{FileNum: d.tb.ID(), Level: -1, Bytes: d.tb.DataSize()})
		d.tb.EvictBlocks()
		s.unrefLocked(d.tb)
		if err == nil {
			_ = s.cfg.FS.Remove(s.path(d.tb.ID()))
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

// remove takes tb off level i, reporting whether it was there.
func (s *Set) remove(i int, tb *Table) bool {
	lvl := s.levels[i]
	j := slices.Index(lvl, tb)
	if j >= 0 {
		s.levels[i] = append(lvl[:j], lvl[j+1:]...)
	}
	return j >= 0
}

// sortLevel restores level i's order: file number on level 0, range below.
func (s *Set) sortLevel(i int) {
	lvl := s.levels[i]
	if i == 0 {
		sort.Slice(lvl, func(a, b int) bool { return lvl[a].ID() < lvl[b].ID() })
		return
	}
	sort.Slice(lvl, func(a, b int) bool { return kv.CompareUser(lvl[a].rng.Lo, lvl[b].rng.Lo) < 0 })
}

// Find returns the table of level i >= 1 whose range contains ukey.
func (s *Set) Find(i int, ukey []byte) *Table {
	lvl := s.levels[i]
	idx := sort.Search(len(lvl), func(j int) bool {
		return kv.CompareUser(ukey, lvl[j].rng.Hi) <= 0
	})
	if idx < len(lvl) && lvl[idx].rng.Contains(ukey) {
		return lvl[idx]
	}
	return nil
}

// ActiveCount counts level i's tables eligible for compaction work, i.e.
// not quarantined.
func (s *Set) ActiveCount(i int) int {
	n := 0
	for _, tb := range s.levels[i] {
		if !tb.quarantined {
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
// failed build removes its half-written file.  The table comes back
// referenced once, on no level, with its range set to its data span.
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
	return &Table{Table: tbl, rng: tbl.UserRange(), refs: 1}, res.Bytes, nil
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

func (s *Set) unrefLocked(tb *Table) {
	tb.refs--
	if invariants.Enabled {
		invariants.Assertf(tb.refs >= 0, "table %d refcount went negative (%d)", tb.ID(), tb.refs)
	}
	if tb.refs == 0 {
		// Read-only handle of a dropped table; nothing left to flush.
		_ = tb.Close()
	}
}

// ---------------------------------------------------------------------
// Reads and reporting.

// unref releases a reader's pin.
func (s *Set) unref(tb *Table) {
	s.Mu.Lock()
	s.unrefLocked(tb)
	s.Mu.Unlock()
}

// Get finds the newest version of ukey visible at snapshot snap: level 0
// tables newest first, then at most one table per deeper level, and
// within a table its sequences newest first behind their Bloom filters
// (Sec. 5.2).
func (s *Set) Get(ukey []byte, snap kv.Seq) ([]byte, kv.Kind, kv.Seq, bool, error) {
	s.Mu.Lock()
	var cands []*Table
	for l0, i := s.levels[0], len(s.levels[0])-1; i >= 0; i-- {
		if l0[i].rng.Contains(ukey) {
			l0[i].refs++
			cands = append(cands, l0[i])
		}
	}
	for i := 1; i < len(s.levels); i++ {
		if tb := s.Find(i, ukey); tb != nil {
			tb.refs++
			cands = append(cands, tb)
		}
	}
	s.Mu.Unlock()
	// Released in one hold, as they were taken.
	defer func() {
		s.Mu.Lock()
		for _, tb := range cands {
			s.unrefLocked(tb)
		}
		s.Mu.Unlock()
	}()
	for _, tb := range cands {
		v, k, sq, found, err := tb.Get(ukey, snap)
		if err != nil {
			return nil, 0, 0, false, err
		}
		if found {
			return v, k, sq, true, nil
		}
	}
	return nil, 0, 0, false, nil
}

// NewIter returns a merged iterator over all on-disk data: every level 0
// table is its own child (their ranges overlap), each deeper level is one
// concatenating child, so a scan consults at most one table per level
// below 0.
func (s *Set) NewIter() iterator.Iterator {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	var kids []iterator.Iterator
	for l0, i := s.levels[0], len(s.levels[0])-1; i >= 0; i-- {
		kids = append(kids, s.newConcatIter(l0[i:i+1]))
	}
	for _, lvl := range s.levels[1:] {
		if len(lvl) > 0 {
			kids = append(kids, s.newConcatIter(lvl))
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
	s.Mu.Lock()
	defer s.Mu.Unlock()
	out := make([]LevelInfo, 0, len(s.levels))
	for i := s.cfg.MinLevel; i < len(s.levels); i++ {
		info := LevelInfo{Level: i, Nodes: len(s.levels[i])}
		for _, tb := range s.levels[i] {
			info.Bytes += tb.DataSize()
			info.Seqs += tb.NumSeqs()
			if tb.quarantined {
				info.Quarantined++
			}
		}
		out = append(out, info)
	}
	return out
}

// SpaceUsed reports on-disk bytes (data + metadata, holes free).
func (s *Set) SpaceUsed() int64 {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	var n int64
	for _, lvl := range s.levels {
		for _, tb := range lvl {
			n += tb.UsedBytes()
		}
	}
	return n
}

// ApproximateSize estimates the data bytes stored in the user-key range
// [lo, hi]: full sizes for tables entirely inside, halves for boundary
// overlaps.
func (s *Set) ApproximateSize(lo, hi []byte) int64 {
	rng := kv.MakeRange(lo, hi)
	s.Mu.Lock()
	defer s.Mu.Unlock()
	var total int64
	for _, lvl := range s.levels {
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
	s.Mu.Lock()
	defer s.Mu.Unlock()
	for _, lvl := range s.levels {
		for _, tb := range lvl {
			if tb.ID() == num {
				fresh := !tb.quarantined
				if fresh {
					tb.quarantined, tb.qreason = true, reason
				}
				return fresh
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
	s.Mu.Lock()
	defer s.Mu.Unlock()
	var out []QuarantineInfo
	for i, lvl := range s.levels {
		for _, tb := range lvl {
			if tb.quarantined {
				out = append(out, QuarantineInfo{
					Level: i, FileNum: tb.ID(), Path: s.path(tb.ID()), Reason: tb.qreason,
				})
			}
		}
	}
	return out
}

// VisitTables walks a referenced snapshot of the current tables for
// offline-style verification (DB.Scrub).  fn runs without Mu so a slow
// scrub does not block flushes; returning an error stops the walk.
func (s *Set) VisitTables(fn func(level int, num uint64, t *table.Table) error) error {
	type ent struct {
		level int
		tb    *Table
	}
	s.Mu.Lock()
	var ents []ent
	for i, lvl := range s.levels {
		for _, tb := range lvl {
			tb.refs++
			ents = append(ents, ent{i, tb})
		}
	}
	s.Mu.Unlock()
	var err error
	for _, e := range ents {
		if err == nil {
			err = fn(e.level, e.tb.ID(), e.tb.Table)
		}
		s.unref(e.tb)
	}
	return err
}

// Close releases every table handle and the manifest.  The set must be
// reopenable from its manifest afterwards.
func (s *Set) Close() error {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	var errs []error
	for _, lvl := range s.levels {
		for _, tb := range lvl {
			errs = append(errs, tb.Close())
		}
	}
	if s.man != nil {
		errs = append(errs, s.man.Close())
	}
	return errors.Join(errs...)
}
