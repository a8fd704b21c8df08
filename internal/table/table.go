// Package table implements the MSTable (Multiple Sequence Table), the
// on-disk node format of LSA- and IAM-trees (Sec. 4.1), and the SSTable
// as its single-sequence special case used by the LSM baselines.
//
// File layout, as described in the paper: record blocks (4 KiB) fill the
// file from the beginning toward the end; the metadata — a per-sequence
// index block and Bloom filter — starts from the end and grows in the
// opposite direction; the middle is a hole reserved for future appends:
//
//	+--------------------------------------------------------------+
//	| seq0 blocks | seq1 blocks | ... |   hole   | metadata | foot |
//	+--------------------------------------------------------------+
//	0          dataEnd                        metaOff       capacity
//
// Each append writes new data blocks at dataEnd and a fresh copy of the
// (small) metadata region at the tail.  When the two fronts would
// collide, Append fails with ErrNoSpace and the caller falls back to a
// merge — exactly the degradation path IAM's flush strategy uses.
//
// The tail commit is crash-safe: metadata is never overwritten in
// place — each append writes the new metadata *below* the previous
// copy (the hole pays for dead copies until the next merge rewrites the
// file) — and the footer is two 48-byte generation-stamped slots,
// written alternately.  A torn or bit-flipped in-flight write can
// therefore only land in virgin hole space or destroy the standby
// footer slot; Open picks the valid slot with the highest generation
// and verifies a CRC over the metadata it points at, so the file always
// reopens at the last synced commit.
package table

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"iamdb/internal/block"
	"iamdb/internal/bloom"
	"iamdb/internal/cache"
	"iamdb/internal/corrupt"
	"iamdb/internal/invariants"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/vfs"
)

const (
	magic   = 0x4d53544247313921 // "MSTBG19!"
	version = 2

	// footerSlot is one generation-stamped footer: magic(8) version(4)
	// seqCount(4) metaOff(8) metaLen(8) metaCRC(4) gen(8) crc(4).
	footerSlot = 48
	// tailLen is the two alternating footer slots at the end of the
	// file; the slot for generation g lives at capacity-tailLen+g%2*footerSlot.
	tailLen = 2 * footerSlot
)

var (
	// ErrNoSpace reports that an append would collide with the
	// metadata region; the caller should merge instead.
	ErrNoSpace = errors.New("table: no space for append")
	// ErrCorrupt reports a malformed table file.
	ErrCorrupt = errors.New("table: corrupt")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SeqMeta describes one sorted sequence inside an MSTable.
type SeqMeta struct {
	Entries  uint64
	DataOff  uint64
	DataLen  uint64
	Smallest []byte // internal key
	Largest  []byte // internal key
	Bloom    bloom.Filter
	RawIndex []byte
	idx      index // RawIndex as fence pointers
}

// Table is an open MSTable.  Methods are safe for any number of readers
// beside one appender; the engines serialize appenders.
type Table struct {
	fs       vfs.FS
	f        vfs.File
	name     string
	id       uint64
	capacity int64
	cache    *cache.Cache
	bitsKey  int
	compress bool

	// cur is the table as its last metadata commit describes it, stored
	// only once that commit is written: a reader loads it and takes no
	// lock, and never sees a sequence the file would not reopen with.
	cur atomic.Pointer[committed]

	// metaFloor belongs to the appender: the start of the last committed
	// metadata copy — the next copy is written strictly below it.  gen is
	// the committed footer generation, stored by writeMeta once its footer
	// slot is written, so a Verify running beside the appender knows the
	// oldest generation the file may legitimately reopen at.
	metaFloor int64
	gen       atomic.Uint64

	// suspect records lost-commit evidence noticed at Open: a non-zero
	// footer slot that failed validation, or a higher-generation
	// candidate whose metadata did not check out before a lower one was
	// accepted.  Crash recovery legitimately produces both signatures
	// (a torn in-flight footer write), so the table stays readable; the
	// DB layer quarantines it conservatively.
	suspect *corrupt.Error
}

// Suspect reports the lost-commit evidence noticed when the table was
// opened, or nil when both footer slots told a consistent story.
func (t *Table) Suspect() error {
	if t.suspect == nil {
		return nil
	}
	return t.suspect
}

// committed is the content of one metadata commit: the sequences,
// oldest first, and the end of their data.  It is never written once
// published; an append publishes a successor.
type committed struct {
	seqs    []SeqMeta
	dataEnd int64
}

// snapshotSeqs returns the committed sequence list.
func (t *Table) snapshotSeqs() []SeqMeta { return t.cur.Load().seqs }

// Options configure table creation and opening.
type Options struct {
	// Cache, if non-nil, holds data blocks read from this table.
	Cache *cache.Cache
	// BitsPerKey sets Bloom density; 0 means the paper's 14.
	BitsPerKey int
	// Compression enables flate compression of data blocks.  The
	// paper's experiments keep it off (Sec. 6.1); readers handle both
	// forms transparently.
	Compression bool
}

func (o Options) bits() int {
	if o.BitsPerKey <= 0 {
		return bloom.DefaultBitsPerKey
	}
	return o.BitsPerKey
}

// MinCapacity is the smallest usable table file: the dual-slot footer
// tail plus room for a few data blocks and the meta section the
// appender reserves.  Callers sizing files from tiny test
// configurations clamp to this floor.
const MinCapacity = tailLen + 4*block.TargetSize

// Create makes a new empty MSTable with the given fixed capacity and
// numeric id (used as the block-cache identity).
func Create(fs vfs.FS, name string, id uint64, capacity int64, opt Options) (*Table, error) {
	if capacity < MinCapacity {
		return nil, fmt.Errorf("table: capacity %d too small", capacity)
	}
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	t := &Table{fs: fs, f: f, name: name, id: id, capacity: capacity,
		cache: opt.Cache, bitsKey: opt.bits(), compress: opt.Compression,
		metaFloor: capacity - tailLen}
	empty := &committed{}
	if err := t.writeMeta(empty); err != nil {
		_ = f.Close()
		return nil, err
	}
	t.cur.Store(empty)
	return t, nil
}

// footerInfo is one decoded footer slot.
type footerInfo struct {
	seqCount int
	metaOff  int64
	metaLen  int64
	metaCRC  uint32
	gen      uint64
}

// parseFooter decodes one footer slot, returning ok=false when the slot
// is empty, torn, or corrupted — the caller falls back to the other.
func parseFooter(p []byte) (footerInfo, bool) {
	if binary.LittleEndian.Uint64(p[0:8]) != magic {
		return footerInfo{}, false
	}
	if binary.LittleEndian.Uint32(p[8:12]) != version {
		return footerInfo{}, false
	}
	if crc32.Checksum(p[:footerSlot-4], castagnoli) != binary.LittleEndian.Uint32(p[footerSlot-4:footerSlot]) {
		return footerInfo{}, false
	}
	return footerInfo{
		seqCount: int(binary.LittleEndian.Uint32(p[12:16])),
		metaOff:  int64(binary.LittleEndian.Uint64(p[16:24])),
		metaLen:  int64(binary.LittleEndian.Uint64(p[24:32])),
		metaCRC:  binary.LittleEndian.Uint32(p[32:36]),
		gen:      binary.LittleEndian.Uint64(p[36:44]),
	}, true
}

// discovery is what reading a file's footer tail and the metadata
// beneath it found: the commit the file reopens at.
type discovery struct {
	size int64
	foot footerInfo // the highest generation whose metadata checks out
	seqs []SeqMeta  // that metadata, parsed
	// suspect is lost-commit evidence met on the way to foot: a non-zero
	// footer slot that failed validation, or a higher-generation
	// candidate whose metadata did not check out.
	suspect *corrupt.Error
}

// discover is the one reader of the tail: Open commits from what it
// returns and Verify re-runs it, so what scrub accepts and what a reopen
// accepts are the same opinion.  Both slots are parsed and tried from the
// highest generation down; the first whose metadata lies in bounds,
// matches its CRC and parses wins.  With no such candidate the error is
// the first suspicious finding, typed.
func discover(f vfs.File, name string) (d discovery, err error) {
	if d.size, err = f.Size(); err != nil {
		return d, err
	}
	if d.size < tailLen {
		return d, corrupt.New(corrupt.LayerTableFooter, name, d.size, ErrCorrupt,
			"file shorter than footer tail")
	}
	var tail [tailLen]byte
	if _, err := f.ReadAt(tail[:], d.size-tailLen); err != nil {
		return d, err
	}
	// A slot that fails validation without being virgin zeros is either
	// a torn in-flight footer write (crash) or rot of a committed slot;
	// the two are indistinguishable by content, so remember the first
	// such finding and let the caller quarantine conservatively.
	note := func(layer string, off int64, detail string, got, want uint32) {
		if d.suspect == nil {
			d.suspect = corrupt.New(layer, name, off, ErrCorrupt, detail).WithCRC(got, want)
		}
	}
	var cands []footerInfo
	for s := 0; s < 2; s++ {
		slot := tail[s*footerSlot : (s+1)*footerSlot]
		if fi, ok := parseFooter(slot); ok {
			cands = append(cands, fi)
			continue
		}
		if !allZero(slot) {
			note(corrupt.LayerTableFooter, d.size-tailLen+int64(s*footerSlot),
				"non-empty footer slot fails validation", 0, 0)
		}
	}
	if len(cands) == 2 && cands[0].gen < cands[1].gen {
		cands[0], cands[1] = cands[1], cands[0]
	}
	for _, fi := range cands {
		if fi.metaOff < 0 || fi.metaLen < 0 || fi.metaOff+fi.metaLen > d.size-tailLen {
			note(corrupt.LayerTableMeta, fi.metaOff,
				fmt.Sprintf("gen %d metadata pointer out of bounds", fi.gen), 0, 0)
			continue
		}
		raw := make([]byte, fi.metaLen)
		if fi.metaLen > 0 {
			if _, err := f.ReadAt(raw, fi.metaOff); err != nil {
				note(corrupt.LayerTableMeta, fi.metaOff,
					fmt.Sprintf("gen %d metadata unreadable: %v", fi.gen, err), 0, 0)
				continue
			}
		}
		if got := crc32.Checksum(raw, castagnoli); got != fi.metaCRC {
			note(corrupt.LayerTableMeta, fi.metaOff,
				fmt.Sprintf("gen %d metadata checksum mismatch", fi.gen), fi.metaCRC, got)
			continue
		}
		seqs, err := parseMeta(raw, fi.seqCount)
		if err != nil {
			note(corrupt.LayerTableMeta, fi.metaOff,
				fmt.Sprintf("gen %d metadata malformed: %v", fi.gen, err), 0, 0)
			continue
		}
		d.foot, d.seqs = fi, seqs
		return d, nil
	}
	if d.suspect != nil {
		return d, d.suspect
	}
	return d, corrupt.New(corrupt.LayerTableFooter, name, d.size-tailLen, ErrCorrupt,
		"no valid footer")
}

// Open reads an existing MSTable's footers and metadata, committing to
// the highest-generation slot whose metadata checks out.
func Open(fs vfs.FS, name string, id uint64, opt Options) (*Table, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	d, err := discover(f, name)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	t := &Table{fs: fs, f: f, name: name, id: id, capacity: d.size,
		cache: opt.Cache, bitsKey: opt.bits(), compress: opt.Compression,
		metaFloor: d.foot.metaOff, suspect: d.suspect}
	t.gen.Store(d.foot.gen)
	c := &committed{seqs: d.seqs}
	for _, s := range d.seqs {
		c.dataEnd = max(c.dataEnd, int64(s.DataOff+s.DataLen))
	}
	t.cur.Store(c)
	return t, nil
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// writeMeta serializes the sequence metadata of c into fresh tail space
// below the last committed copy and commits it by writing the next
// generation's footer slot; the caller publishes c once it returns nil.
// Nothing the previous generation depends on is touched, so a crash
// anywhere in here leaves the old commit intact.  Returns ErrNoSpace if
// metadata would collide with data.
func (t *Table) writeMeta(c *committed) error {
	buf := make([]byte, 0, metaSize(c.seqs))
	for _, s := range c.seqs {
		buf = binary.AppendUvarint(buf, s.Entries)
		buf = binary.AppendUvarint(buf, s.DataOff)
		buf = binary.AppendUvarint(buf, s.DataLen)
		buf = appendBytes(buf, s.Smallest)
		buf = appendBytes(buf, s.Largest)
		buf = appendBytes(buf, s.Bloom)
		buf = appendBytes(buf, s.RawIndex)
	}
	metaOff := t.metaFloor - int64(len(buf))
	if metaOff < c.dataEnd {
		return ErrNoSpace
	}
	if len(buf) > 0 {
		if _, err := t.f.WriteAt(buf, metaOff); err != nil {
			return err
		}
	}
	gen := t.gen.Load() + 1
	var foot [footerSlot]byte
	binary.LittleEndian.PutUint64(foot[0:8], magic)
	binary.LittleEndian.PutUint32(foot[8:12], version)
	binary.LittleEndian.PutUint32(foot[12:16], uint32(len(c.seqs)))
	binary.LittleEndian.PutUint64(foot[16:24], uint64(metaOff))
	binary.LittleEndian.PutUint64(foot[24:32], uint64(len(buf)))
	binary.LittleEndian.PutUint32(foot[32:36], crc32.Checksum(buf, castagnoli))
	binary.LittleEndian.PutUint64(foot[36:44], gen)
	binary.LittleEndian.PutUint32(foot[44:48], crc32.Checksum(foot[:44], castagnoli))
	slot := int64(gen % 2)
	if _, err := t.f.WriteAt(foot[:], t.capacity-tailLen+slot*footerSlot); err != nil {
		return err
	}
	t.gen.Store(gen)
	t.metaFloor = metaOff
	return nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBytes(p []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || uint64(len(p)-w) < n {
		return nil, nil, ErrCorrupt
	}
	return p[w : w+int(n)], p[w+int(n):], nil
}

// parseMeta decodes seqCount sequence descriptions as writeMeta wrote them.
func parseMeta(raw []byte, seqCount int) ([]SeqMeta, error) {
	var seqs []SeqMeta
	p := raw
	for i := 0; i < seqCount; i++ {
		var s SeqMeta
		for _, field := range []*uint64{&s.Entries, &s.DataOff, &s.DataLen} {
			var w int
			if *field, w = binary.Uvarint(p); w <= 0 {
				return nil, ErrCorrupt
			}
			p = p[w:]
		}
		var err error
		if s.Smallest, p, err = readBytes(p); err != nil {
			return nil, err
		}
		if s.Largest, p, err = readBytes(p); err != nil {
			return nil, err
		}
		var bl []byte
		if bl, p, err = readBytes(p); err != nil {
			return nil, err
		}
		s.Bloom = bloom.Filter(bl)
		if s.RawIndex, p, err = readBytes(p); err != nil {
			return nil, err
		}
		if s.Entries > 0 {
			if s.idx, err = decodeIndex(s.RawIndex, s.Smallest, s.Largest); err != nil {
				return nil, fmt.Errorf("seq %d index: %w", i, err)
			}
		}
		seqs = append(seqs, s)
	}
	return seqs, nil
}

// Close releases the file handle.
func (t *Table) Close() error { return t.f.Close() }

// Name returns the file name the table was opened with.
func (t *Table) Name() string { return t.name }

// ID returns the table's cache identity.
func (t *Table) ID() uint64 { return t.id }

// Capacity returns the fixed file capacity.
func (t *Table) Capacity() int64 { return t.capacity }

// NumSeqs reports how many sorted sequences the table holds.
func (t *Table) NumSeqs() int { return len(t.snapshotSeqs()) }

// DataSize reports the bytes of record blocks (excludes hole/metadata).
func (t *Table) DataSize() int64 { return t.cur.Load().dataEnd }

// MetaSize reports the serialized metadata size.
func (t *Table) MetaSize() int64 { return metaSize(t.snapshotSeqs()) }

// metaSize bounds the metadata writeMeta serializes for seqs.
func metaSize(seqs []SeqMeta) int64 {
	var n int64
	for _, s := range seqs {
		n += int64(len(s.Smallest) + len(s.Largest) + len(s.Bloom) + len(s.RawIndex) + 24)
	}
	return n
}

// UsedBytes reports data + metadata + footers: the space the table
// would occupy on a hole-punching filesystem.  Figure 10 sums this.
func (t *Table) UsedBytes() int64 { return t.DataSize() + t.MetaSize() + tailLen }

// Entries reports the total record count across sequences.
func (t *Table) Entries() uint64 {
	var n uint64
	for _, s := range t.snapshotSeqs() {
		n += s.Entries
	}
	return n
}

// SeqMetaAt returns sequence i's metadata (oldest first).
func (t *Table) SeqMetaAt(i int) SeqMeta { return t.snapshotSeqs()[i] }

// UserRange returns the user-key range covered by all sequences.
func (t *Table) UserRange() kv.Range {
	var r kv.Range
	for _, s := range t.snapshotSeqs() {
		if s.Entries == 0 {
			continue
		}
		r = r.Extend(kv.UserKey(s.Smallest))
		r = r.Extend(kv.UserKey(s.Largest))
	}
	return r
}

// ResidentBytes reports how much of this table the block cache holds.
func (t *Table) ResidentBytes() int64 {
	if t.cache == nil {
		return 0
	}
	return t.cache.ResidentBytes(t.id)
}

// EvictBlocks drops this table's blocks from the cache (on deletion).
func (t *Table) EvictBlocks() {
	if t.cache != nil {
		t.cache.EvictTable(t.id)
	}
}

// Each data block carries a trailer: one compression-type byte
// followed by a CRC32-C over payload+type, verified on every uncached
// read so a flipped bit surfaces as ErrCorrupt instead of silent wrong
// results.  The paper's experiments run with compression off
// (Sec. 6.1), which is the default here too.
const blockTrailerLen = 5

const (
	blockRaw   = 0
	blockFlate = 1
)

// verifyBlockAt checks a data block's CRC trailer and returns the
// decoded (decompressed if needed) payload.  Failures come back as a
// *corrupt.Error attributed to name/off.
func verifyBlockAt(raw []byte, name string, off uint64) ([]byte, error) {
	if len(raw) < blockTrailerLen {
		return nil, corrupt.New(corrupt.LayerTableBlock, name, int64(off), ErrCorrupt, "short block")
	}
	body := raw[:len(raw)-4]
	stored := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if computed := crc32.Checksum(body, castagnoli); computed != stored {
		return nil, corrupt.New(corrupt.LayerTableBlock, name, int64(off), ErrCorrupt,
			"block checksum mismatch").WithCRC(stored, computed)
	}
	payload := body[:len(body)-1]
	switch body[len(body)-1] {
	case blockRaw:
		return payload, nil
	case blockFlate:
		r := flate.NewReader(bytes.NewReader(payload))
		out, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			return nil, corrupt.New(corrupt.LayerTableBlock, name, int64(off), ErrCorrupt,
				fmt.Sprintf("flate: %v", err))
		}
		return out, nil
	default:
		return nil, corrupt.New(corrupt.LayerTableBlock, name, int64(off), ErrCorrupt,
			fmt.Sprintf("unknown block compression %d", body[len(body)-1]))
	}
}

// encodeBlock applies the trailer (and optional compression) to an
// encoded block.  An uncompressed result continues enc's own storage
// (regrown if the trailer did not fit); a compressed one lives in
// flate's output and leaves enc untouched.
func encodeBlock(enc []byte, compress bool) (out []byte, compressed bool) {
	typ := byte(blockRaw)
	if compress {
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, flate.BestSpeed)
		w.Write(enc)
		w.Close()
		if buf.Len() < len(enc) {
			enc = buf.Bytes()
			typ = blockFlate
		}
	}
	enc = append(enc, typ)
	return binary.LittleEndian.AppendUint32(enc, crc32.Checksum(enc, castagnoli)), typ == blockFlate
}

func (t *Table) readBlock(off, length uint64) ([]byte, error) {
	if t.cache != nil {
		if b := t.cache.Get(t.id, off); b != nil {
			return b, nil // cached blocks are stored verified
		}
	}
	buf := make([]byte, length)
	if err := t.readAt(buf, int64(off)); err != nil {
		return nil, err
	}
	payload, err := verifyBlockAt(buf, t.name, off)
	if err != nil {
		return nil, err
	}
	if t.cache != nil {
		t.cache.Set(t.id, off, payload)
	}
	return payload, nil
}

// readAt fills buf with the block bytes at off.  The index that named
// them is covered by the metadata CRC, so a file that ends first has lost
// its tail: corruption of that block, not an I/O failure.
func (t *Table) readAt(buf []byte, off int64) error {
	_, err := t.f.ReadAt(buf, off)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corrupt.New(corrupt.LayerTableBlock, t.name, off, ErrCorrupt,
			"block extends past end of file")
	}
	return err
}

// AppendResult reports what an append wrote.
type AppendResult struct {
	Entries uint64
	// Bytes is the total bytes written: data blocks plus the rewritten
	// metadata region and footer.  Engines attribute this to the
	// destination level for write-amplification accounting.
	Bytes int64
}

// Append writes all records produced by it (ascending internal keys) as
// a new sorted sequence.  On ErrNoSpace the table's logical state is
// unchanged and the caller should merge instead.
func (t *Table) Append(it iterator.Iterator) (AppendResult, error) {
	it.First()
	return t.AppendFrom(it)
}

// AppendFrom drains an already-positioned iterator into one new
// sequence.  Splitting a run into tables is the caller's business
// (tableset.BuildRuns).
func (t *Table) AppendFrom(it iterator.Iterator) (AppendResult, error) {
	// On any failure, data blocks already written past the old dataEnd
	// are garbage in the hole; the metadata still describes only the
	// old sequences, so there is nothing to undo on disk.
	w := newSeqWriter(t)
	for ; it.Valid(); it.Next() {
		if err := w.add(it.Key(), it.Value()); err != nil {
			return AppendResult{}, err
		}
	}
	if err := it.Err(); err != nil {
		return AppendResult{}, err
	}
	meta, err := w.finish()
	if err != nil {
		return AppendResult{}, err
	}
	// Only a writer that finished goes back: its builders are empty
	// again, which one abandoned mid-block is not.
	off := w.off
	w.t = nil
	seqWriterPool.Put(w)
	if meta.Entries == 0 {
		return AppendResult{}, nil
	}
	seqs := t.snapshotSeqs()
	next := &committed{seqs: append(seqs[:len(seqs):len(seqs)], meta), dataEnd: off}
	if err := t.writeMeta(next); err != nil {
		return AppendResult{}, err
	}
	t.cur.Store(next)
	return AppendResult{
		Entries: meta.Entries,
		Bytes:   int64(meta.DataLen) + t.MetaSize() + footerSlot,
	}, nil
}

// Sync flushes the table file.
func (t *Table) Sync() error { return t.f.Sync() }

// VerifyStats reports what a Verify pass covered; Add sums passes, so
// Tables counts them.
type VerifyStats struct {
	Tables  int
	Seqs    int
	Blocks  int64
	Bytes   int64
	Entries uint64
}

// Add folds another pass's coverage into st.
func (st *VerifyStats) Add(o VerifyStats) {
	st.Tables += o.Tables
	st.Seqs += o.Seqs
	st.Blocks += o.Blocks
	st.Bytes += o.Bytes
	st.Entries += o.Entries
}

func (st VerifyStats) String() string {
	return fmt.Sprintf("tables=%d seqs=%d blocks=%d bytes=%d entries=%d",
		st.Tables, st.Seqs, st.Blocks, st.Bytes, st.Entries)
}

// Verify re-reads the table from disk and checks everything the format
// protects: footer + metadata discovery (discover, the procedure Open
// uses), every data block's CRC (bypassing the cache — scrub checks
// the disk, not memory), index structure, record ordering, record
// containment in the sequence bounds, Bloom membership of every user
// key, and per-sequence entry counts — of the sequences the file
// describes, not the copy in memory.  onBlock, when non-nil, runs
// after each verified data block with its on-disk size, for progress
// counting; nothing paces the pass.  The first failure is returned as a
// *corrupt.Error.
//
// The file must still reopen at the generation this handle holds or a
// newer one: a discovery that falls back below it has lost a commit a
// reopen would silently lose too.  That is also what makes the pass safe
// beside a concurrent appender: committed sequences and their blocks are
// immutable, the appender only ever writes the standby slot, and gen is
// stored after that write, so the appender can only make the discovery
// newer than the generation read here.  A damaged standby slot is for the
// same reason not a finding: it is what an in-flight footer write looks
// like, and the next Open reports it (Suspect).
func (t *Table) Verify(onBlock func(n int64)) (VerifyStats, error) {
	st := VerifyStats{Tables: 1}
	gen := t.gen.Load()
	d, err := discover(t.f, t.name)
	if err != nil {
		return st, err
	}
	if d.foot.gen < gen {
		return st, corrupt.New(corrupt.LayerTableFooter, t.name,
			d.size-tailLen+int64(gen%2)*footerSlot, ErrCorrupt,
			fmt.Sprintf("committed generation %d no longer validates, the file reopens at %d",
				gen, d.foot.gen))
	}
	for i := range d.seqs {
		s := &d.seqs[i]
		st.Seqs++
		var count uint64
		var prev []byte
		for _, b := range s.idx.blocks {
			off, length := b.off, uint64(b.length)
			buf := make([]byte, length)
			if err := t.readAt(buf, int64(off)); err != nil {
				return st, err
			}
			payload, err := verifyBlockAt(buf, t.name, off)
			if err != nil {
				return st, err
			}
			br, err := block.NewReader(payload, kv.CompareInternal)
			if err != nil {
				return st, t.blockCorrupt(off, err, "block structure invalid despite valid checksum")
			}
			bi := br.Iter()
			for bi.First(); bi.Valid(); bi.Next() {
				k := bi.Key()
				if len(prev) > 0 && kv.CompareInternal(prev, k) >= 0 {
					return st, t.blockCorrupt(off, ErrCorrupt, "records out of order")
				}
				prev = append(prev[:0], k...)
				user, _, _, keyOK := kv.ParseInternalKey(k)
				if !keyOK {
					return st, t.blockCorrupt(off, ErrCorrupt, "record key malformed")
				}
				if kv.CompareInternal(k, s.Smallest) < 0 || kv.CompareInternal(k, s.Largest) > 0 {
					return st, t.blockCorrupt(off, ErrCorrupt, "record outside sequence bounds")
				}
				if !s.Bloom.MayContain(user) {
					return st, t.metaCorrupt(ErrCorrupt,
						fmt.Sprintf("seq %d bloom filter misses a present key", i))
				}
				count++
			}
			if err := bi.Err(); err != nil {
				return st, t.blockCorrupt(off, err, "block iterator corruption")
			}
			st.Blocks++
			st.Bytes += int64(length)
			if onBlock != nil {
				onBlock(int64(length))
			}
		}
		if count != s.Entries {
			return st, t.metaCorrupt(ErrCorrupt,
				fmt.Sprintf("seq %d holds %d records, metadata claims %d", i, count, s.Entries))
		}
		st.Entries += count
	}
	return st, nil
}

// seqWriter streams one sorted sequence into the data region.  It
// builds every data block of the sequence in one buffer and keeps the
// Bloom hash of each user key, so a record costs no allocation.
type seqWriter struct {
	t        *Table
	startOff int64
	off      int64
	bb       *block.Builder
	ib       *block.Builder
	idx      index    // what ib holds, as fence pointers
	hashes   []uint32 // bloom.Hash of each distinct user key, in order
	lastUser []byte
	smallest []byte
	lastKey  []byte
	entries  uint64
}

// seqWriterPool keeps writers between sequences: a flush spreads one
// memtable over a node's children, so most sequences are a few blocks
// long and would otherwise each grow a block buffer from nothing.
var seqWriterPool = sync.Pool{New: func() any {
	return &seqWriter{bb: block.NewBuilder(), ib: block.NewBuilder()}
}}

// newSeqWriter returns a writer positioned at t's data end.
func newSeqWriter(t *Table) *seqWriter {
	w := seqWriterPool.Get().(*seqWriter)
	end := t.DataSize()
	w.t, w.startOff, w.off, w.entries = t, end, end, 0
	w.hashes, w.smallest = w.hashes[:0], nil
	w.idx.keys, w.idx.blocks = w.idx.keys[:0], w.idx.blocks[:0]
	return w
}

func (w *seqWriter) add(ikey, val []byte) error {
	if w.entries == 0 {
		w.smallest = append([]byte(nil), ikey...)
	}
	if invariants.Enabled {
		// Sequences must be written in strictly ascending internal-key
		// order or Get/iterators silently return wrong results.
		invariants.Assertf(w.entries == 0 || kv.CompareInternal(w.lastKey, ikey) < 0,
			"append out of order: %x then %x", w.lastKey, ikey)
	}
	w.lastKey = append(w.lastKey[:0], ikey...)
	u := kv.UserKey(ikey)
	if w.entries == 0 || !bytes.Equal(u, w.lastUser) {
		w.hashes = append(w.hashes, bloom.Hash(u))
		w.lastUser = append(w.lastUser[:0], u...)
	}
	w.bb.Add(ikey, val)
	w.entries++
	if w.bb.Full() {
		return w.flushBlock()
	}
	return nil
}

func (w *seqWriter) flushBlock() error {
	if w.bb.Empty() {
		return nil
	}
	raw := w.bb.Finish()
	enc, compressed := encodeBlock(raw, w.t.compress)
	// Guard against colliding with the metadata region: the new copy
	// goes below metaFloor, so leave room under it for the metadata of
	// existing sequences plus this one.
	reserve := w.t.MetaSize() + int64(w.ib.SizeEstimate()) + int64(len(w.hashes)*2) + 4096
	if w.off+int64(len(enc))+reserve > w.t.metaFloor {
		return ErrNoSpace
	}
	if _, err := w.t.f.WriteAt(enc, w.off); err != nil {
		return err
	}
	var handle [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(handle[:], uint64(w.off))
	n += binary.PutUvarint(handle[n:], uint64(len(enc)))
	w.ib.Add(w.lastKey, handle[:n])
	w.idx.add(w.lastKey, uint64(w.off), uint64(len(enc)))
	w.off += int64(len(enc))
	// The device write copied the block, so the builder gets its storage
	// back for the next one: its own, never flate's output.
	if compressed {
		w.bb.Reuse(raw)
	} else {
		w.bb.Reuse(enc)
	}
	return nil
}

func (w *seqWriter) finish() (SeqMeta, error) {
	if w.entries == 0 {
		return SeqMeta{}, nil
	}
	if err := w.flushBlock(); err != nil {
		return SeqMeta{}, err
	}
	m := SeqMeta{
		Entries:  w.entries,
		DataOff:  uint64(w.startOff),
		DataLen:  uint64(w.off - w.startOff),
		Smallest: w.smallest,
		Largest:  append([]byte(nil), w.lastKey...),
		Bloom:    bloom.BuildFromHashes(w.hashes, w.t.bitsKey),
		// The index block is the builder's own storage and stays with
		// the metadata; it is never handed back.
		RawIndex: w.ib.Finish(),
	}
	var err error
	if m.idx, err = w.idx.seal(m.Smallest, m.Largest); err != nil {
		return SeqMeta{}, err
	}
	if invariants.Enabled {
		// A reopened table searches the index decoded from RawIndex.
		dec, err := decodeIndex(m.RawIndex, m.Smallest, m.Largest)
		invariants.Assertf(err == nil && dec.equal(&m.idx),
			"the index RawIndex decodes to (%v) differs from the one written", err)
	}
	return m, nil
}

// Probe carries one point read through the tables it visits: the user
// key, its Bloom hash, taken once for every filter on the way, the seek
// target at the read's snapshot, and the data reader each sequence
// search points at the block its fence pointers name.  Probes are
// recycled, so a read served from the block cache allocates nothing.
type Probe struct {
	ukey   []byte
	hash   uint32
	target []byte
	data   block.Reader
	di     block.Iter
}

var probePool = sync.Pool{New: func() any { return new(Probe) }}

// NewProbe starts a point read of ukey at snapshot snap.  Release ends
// it; the values it found stay valid.
func NewProbe(ukey []byte, snap kv.Seq) *Probe {
	p := probePool.Get().(*Probe)
	p.ukey, p.hash = ukey, bloom.Hash(ukey)
	p.target = kv.AppendInternalKey(p.target[:0], ukey, snap, kv.MaxKind)
	return p
}

// Release hands p back for another read.
func (p *Probe) Release() {
	p.ukey = nil
	probePool.Put(p)
}

// Get looks up the newest record for ukey visible at snapshot snap: Find
// with a probe of its own.
func (t *Table) Get(ukey []byte, snap kv.Seq) (val []byte, kind kv.Kind, seq kv.Seq, found bool, err error) {
	p := NewProbe(ukey, snap)
	defer p.Release()
	return t.Find(p)
}

// Find looks up the newest record of p's key visible at p's snapshot.
// It searches sequences newest-first, consulting Bloom filters, and
// stops at the first hit (Sec. 5.2).  The returned value aliases cache
// or freshly-read memory and must be copied if retained.
// found=false means no sequence holds any visible version of the key.
func (t *Table) Find(p *Probe) (val []byte, kind kv.Kind, seq kv.Seq, found bool, err error) {
	seqs := t.snapshotSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		s := &seqs[i]
		if s.Entries == 0 || !s.Bloom.MayContainHash(p.hash) {
			continue
		}
		// Quick range rejection on user keys.
		if kv.CompareUser(p.ukey, kv.UserKey(s.Smallest)) < 0 ||
			kv.CompareUser(p.ukey, kv.UserKey(s.Largest)) > 0 {
			continue
		}
		v, k, sq, ok, err := t.getInSeq(s, p)
		if err != nil {
			return nil, 0, 0, false, err
		}
		if ok {
			return v, k, sq, true, nil
		}
	}
	return nil, 0, 0, false, nil
}

func (t *Table) getInSeq(s *SeqMeta, p *Probe) ([]byte, kv.Kind, kv.Seq, bool, error) {
	i := s.idx.search(p.target)
	if i == len(s.idx.blocks) {
		return nil, 0, 0, false, nil
	}
	b := &s.idx.blocks[i]
	off := b.off
	data, err := t.readBlock(off, uint64(b.length))
	if err != nil {
		return nil, 0, 0, false, err
	}
	if err := p.data.Init(data, kv.CompareInternal); err != nil {
		return nil, 0, 0, false, t.blockCorrupt(off, err, "block structure invalid despite valid checksum")
	}
	p.di.Reset(&p.data)
	p.di.Seek(p.target)
	if !p.di.Valid() {
		return nil, 0, 0, false, t.wrapIterErr(p.di.Err())
	}
	gotUser, gotSeq, gotKind, ok := kv.ParseInternalKey(p.di.Key())
	if !ok {
		return nil, 0, 0, false, t.blockCorrupt(off, ErrCorrupt, "record key malformed")
	}
	if !bytes.Equal(gotUser, p.ukey) {
		return nil, 0, 0, false, nil
	}
	return p.di.Value(), gotKind, gotSeq, true, nil
}

// metaCorrupt attributes a metadata/index-structure failure to this
// table's file; the detecting layer's sentinel rides along as cause.
func (t *Table) metaCorrupt(cause error, detail string) *corrupt.Error {
	return corrupt.New(corrupt.LayerTableMeta, t.name, -1, errors.Join(ErrCorrupt, cause), detail)
}

// blockCorrupt attributes a data-block failure at off to this table.
func (t *Table) blockCorrupt(off uint64, cause error, detail string) *corrupt.Error {
	return corrupt.New(corrupt.LayerTableBlock, t.name, int64(off), errors.Join(ErrCorrupt, cause), detail)
}

// wrapIterErr attributes block-iterator corruption to this table's
// file; nil and non-corruption errors pass through unchanged.
func (t *Table) wrapIterErr(err error) error {
	if err == nil || !errors.Is(err, block.ErrCorrupt) {
		return err
	}
	var ce *corrupt.Error
	if errors.As(err, &ce) {
		return err // already attributed
	}
	return corrupt.New(corrupt.LayerTableBlock, t.name, -1, errors.Join(ErrCorrupt, err),
		"block iterator corruption")
}

// SeqIter returns an iterator over sequence i (oldest = 0).  Like
// NewIter it reads the block cache and leaves it as it found it.
func (t *Table) SeqIter(i int) iterator.ReverseIterator {
	return t.seqIterOf(t.snapshotSeqs(), i, false)
}

func (t *Table) seqIterOf(seqs []SeqMeta, i int, fill bool) iterator.ReverseIterator {
	s := &seqs[i]
	if s.Entries == 0 {
		return iterator.Empty{}
	}
	return &seqIter{t: t, seq: s, fill: fill}
}

// NewIter returns an iterator merging every sequence, newest winning
// nothing special (internal keys are unique); the ordering is plain
// internal-key order as scans require.  It is the one-pass read of the
// merges and the tools: a block a user read left in the cache is served
// from there, but nothing it reads is inserted — the tables a merge
// reads are dropped, and their blocks evicted, when it publishes.
func (t *Table) NewIter() iterator.ReverseIterator { return t.iterOf(t.snapshotSeqs(), false) }

// NewIterAt is NewIter over the oldest n sequences only: the table as
// it stood when NumSeqs returned n, whatever has been appended since.
// It serves user scans, so the blocks it reads fill the cache.
func (t *Table) NewIterAt(n int) iterator.ReverseIterator {
	return t.iterOf(t.snapshotSeqs()[:n], true)
}

func (t *Table) iterOf(seqs []SeqMeta, fill bool) iterator.ReverseIterator {
	if len(seqs) == 0 {
		return iterator.Empty{}
	}
	if len(seqs) == 1 {
		return t.seqIterOf(seqs, 0, fill)
	}
	kids := make([]iterator.Iterator, 0, len(seqs))
	for i := len(seqs) - 1; i >= 0; i-- { // newest first for tie order
		kids = append(kids, t.seqIterOf(seqs, i, fill))
	}
	return iterator.NewMerging(kv.CompareInternal, kids...)
}

// readaheadSize is the sequential read-ahead window of sequence
// iterators.  The paper's testbed runs with filesystem read-ahead
// enabled (Sec. 6.1); without it, a merge that interleaves block reads
// across a node's sequences would pay one disk seek per 4 KiB block,
// which no real deployment does.
const readaheadSize = 64 * 1024

// windowPool keeps read-ahead windows between iterators: a merge opens
// one iterator per input sequence and a short scan one per table it
// crosses, and a fresh window each would be most of what they allocate.
var windowPool = sync.Pool{New: func() any { return new([readaheadSize]byte) }}

// windowsOut counts the pooled windows iterators hold, under -tags
// invariants only: an iterator that is dropped without Close shows here.
var windowsOut atomic.Int64

// WindowsOnLoan reports how many pooled read-ahead windows open
// iterators hold.  It counts only under -tags invariants and reads 0
// without the tag.
func WindowsOnLoan() int64 { return windowsOut.Load() }

// seqIter chains the data blocks of one sequence via its fence pointers.
// Block fetches that continue sequentially from the previous fetch are
// served through a read-ahead window the iterator borrows from
// windowPool at its first physical read, refills in place, and hands
// back in Close.  Its reader is its own: each block it loads is read
// by the one data reader, into the one key storage.
type seqIter struct {
	t       *Table
	seq     *SeqMeta // a committed sequence: never written again
	curR    block.Reader
	cur     block.Iter
	blk     int  // the block cur reads, while inBlock
	inBlock bool // cur is positioned in a loaded block
	err     error
	// fill says whether blocks read from the device are inserted into
	// the cache: yes for a user's scan, no for the one pass of a merge.
	fill bool

	win      *[readaheadSize]byte // the borrowed window, until Close
	ra       []byte               // file bytes [raStart, raStart+len(ra)), in win unless a block outgrew it
	raStart  int64
	fetchEnd int64 // end offset of the previous physical fetch
	everRead bool
}

// window returns storage for a refill of n bytes: the pooled window,
// or, for a block larger than that, a buffer of the block's own size,
// which is left to the collector.
func (s *seqIter) window(n int64) []byte {
	if n > readaheadSize {
		return make([]byte, n)
	}
	if s.win == nil {
		if invariants.Enabled {
			windowsOut.Add(1)
		}
		s.win = windowPool.Get().(*[readaheadSize]byte)
	}
	return s.win[:]
}

// fetchBlock returns the data block at [off, off+length), using the
// cache, then the read-ahead window, then a physical read that extends
// ahead when the access pattern is sequential.  An uncompressed payload
// that did not come from the cache aliases the window: it is valid until
// this iterator's next positioning call, which may refill the window, or
// its Close.  A filling iterator therefore gives the cache a copy.
func (s *seqIter) fetchBlock(off, length uint64) ([]byte, error) {
	t := s.t
	if t.cache != nil {
		if b := t.cache.Get(t.id, off); b != nil {
			return b, nil
		}
	}
	o, l := int64(off), int64(length)
	if o < s.raStart || o+l > s.raStart+int64(len(s.ra)) {
		seqEnd := int64(s.seq.DataOff + s.seq.DataLen)
		chunk := l
		if s.everRead && o == s.fetchEnd {
			// Sequential continuation: read ahead like the OS would.
			if c := int64(readaheadSize); c > chunk {
				chunk = c
			}
			if o+chunk > seqEnd {
				chunk = seqEnd - o
			}
		}
		// Whatever the window held is gone from here on, so a failed
		// read must not leave it describing the old extent.
		buf := s.ra[:0]
		s.ra = buf
		if int64(cap(buf)) < chunk {
			buf = s.window(chunk)
		} else if invariants.Enabled {
			invariants.Poison(buf)
		}
		buf = buf[:chunk]
		if err := t.readAt(buf, o); err != nil {
			return nil, err
		}
		s.everRead = true
		s.fetchEnd = o + chunk
		s.ra = buf
		s.raStart = o
	}
	payload, err := verifyBlockAt(s.ra[o-s.raStart:o-s.raStart+l], t.name, off)
	if err != nil {
		return nil, err
	}
	if s.fill && t.cache != nil {
		t.cache.Set(t.id, off, append([]byte(nil), payload...))
	}
	return payload, nil
}

// loadBlock points cur at block i, reporting false when there is no
// such block or it failed to load.
func (s *seqIter) loadBlock(i int) bool {
	s.inBlock = false
	if i < 0 || i >= len(s.seq.idx.blocks) {
		return false
	}
	b := &s.seq.idx.blocks[i]
	off := b.off
	data, err := s.fetchBlock(off, uint64(b.length))
	if err != nil {
		s.err = err
		return false
	}
	if err := s.curR.Init(data, kv.CompareInternal); err != nil {
		s.err = s.t.blockCorrupt(off, err, "block structure invalid despite valid checksum")
		return false
	}
	s.cur.Reset(&s.curR)
	s.blk, s.inBlock = i, true
	return true
}

// First implements Iterator.
func (s *seqIter) First() {
	s.err = nil
	if s.loadBlock(0) {
		s.cur.First()
		s.skipEmptyForward()
	}
}

// Seek implements Iterator.
func (s *seqIter) Seek(target []byte) {
	s.err = nil
	if s.loadBlock(s.seq.idx.search(target)) {
		s.cur.Seek(target)
		s.skipEmptyForward()
	}
}

// Next implements Iterator.
func (s *seqIter) Next() {
	if !s.inBlock || s.err != nil {
		return
	}
	s.cur.Next()
	s.skipEmptyForward()
}

// skipEmptyForward advances to the next non-exhausted block.
func (s *seqIter) skipEmptyForward() {
	for s.inBlock && !s.cur.Valid() && s.err == nil {
		if err := s.cur.Err(); err != nil {
			s.err = err
			return
		}
		if !s.loadBlock(s.blk + 1) {
			return
		}
		s.cur.First()
	}
}

// Valid implements Iterator.
func (s *seqIter) Valid() bool { return s.err == nil && s.inBlock && s.cur.Valid() }

// Key implements Iterator.
func (s *seqIter) Key() []byte {
	if !s.inBlock {
		return nil
	}
	return s.cur.Key()
}

// Value implements Iterator.
func (s *seqIter) Value() []byte {
	if !s.inBlock {
		return nil
	}
	return s.cur.Value()
}

// Err implements Iterator.
func (s *seqIter) Err() error { return s.t.wrapIterErr(s.err) }

// Close implements Iterator.  The window goes back to the pool, so the
// iterator and every key and value it returned are invalid from here
// on; closing again does nothing.
func (s *seqIter) Close() error {
	s.inBlock, s.ra = false, nil
	if s.win != nil {
		if invariants.Enabled {
			invariants.Poison(s.win[:])
			windowsOut.Add(-1)
		}
		windowPool.Put(s.win)
		s.win = nil
	}
	return nil
}

// Last implements iterator.ReverseIterator.
func (s *seqIter) Last() {
	s.err = nil
	if s.loadBlock(len(s.seq.idx.blocks) - 1) {
		s.cur.Last()
		s.skipEmptyBackward()
	}
}

// Prev implements iterator.ReverseIterator.
func (s *seqIter) Prev() {
	if !s.inBlock || s.err != nil {
		return
	}
	s.cur.Prev()
	s.skipEmptyBackward()
}

// SeekForPrev implements iterator.ReverseIterator: position at the
// last key <= target.
func (s *seqIter) SeekForPrev(target []byte) {
	s.err = nil
	// Separators are each block's largest key, so search finds the first
	// block whose range can contain target.
	i := s.seq.idx.search(target)
	if i == len(s.seq.idx.blocks) {
		// target is above every block: the answer is the last key.
		s.Last()
		return
	}
	if !s.loadBlock(i) {
		return
	}
	s.cur.SeekForPrev(target)
	s.skipEmptyBackward()
}

// skipEmptyBackward steps to the previous block while the current one
// is exhausted.
func (s *seqIter) skipEmptyBackward() {
	for s.inBlock && !s.cur.Valid() && s.err == nil {
		if err := s.cur.Err(); err != nil {
			s.err = err
			return
		}
		if !s.loadBlock(s.blk - 1) {
			return
		}
		s.cur.Last()
	}
}
