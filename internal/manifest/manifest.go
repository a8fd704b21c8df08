// Package manifest persists tree metadata — which table file lives on
// which level with which assigned key range — as a log of version edits,
// in the spirit of LevelDB's MANIFEST.  LSA/IAM needs this in particular
// because a node's *assigned* range (adjusted by flushes, splits and
// combines, Sec. 4.2) can be wider than the keys currently stored in its
// file, so it cannot be reconstructed from table contents alone.
package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"iamdb/internal/corrupt"
	"iamdb/internal/kv"
	"iamdb/internal/vfs"
	"iamdb/internal/wal"
)

// ErrCorrupt reports a malformed manifest record.
var ErrCorrupt = errors.New("manifest: corrupt")

// NodeRecord places one table file in the tree.
type NodeRecord struct {
	Level   int
	FileNum uint64
	// Lo and Hi are the node's assigned user-key range.  For LSM
	// baselines this equals the table's data bounds; for LSA/IAM it is
	// the tree-assigned range.
	Lo, Hi []byte
}

// Edit is one atomic metadata change.
type Edit struct {
	Added   []NodeRecord
	Deleted []NodeRef
	// The following apply when their Set flag is true.
	NextFile    uint64
	SetNextFile bool
	LastSeq     kv.Seq
	SetLastSeq  bool
	LogNum      uint64
	SetLogNum   bool
	NumLevels   int
	SetLevels   bool
}

// NodeRef identifies a node being removed.
type NodeRef struct {
	Level   int
	FileNum uint64
}

const (
	tagAdded    = 1
	tagDeleted  = 2
	tagNextFile = 3
	tagLastSeq  = 4
	tagLogNum   = 5
	tagLevels   = 6
)

func (e *Edit) encode() []byte {
	var b []byte
	for _, n := range e.Added {
		b = binary.AppendUvarint(b, tagAdded)
		b = binary.AppendUvarint(b, uint64(n.Level))
		b = binary.AppendUvarint(b, n.FileNum)
		b = appendBytes(b, n.Lo)
		b = appendBytes(b, n.Hi)
	}
	for _, d := range e.Deleted {
		b = binary.AppendUvarint(b, tagDeleted)
		b = binary.AppendUvarint(b, uint64(d.Level))
		b = binary.AppendUvarint(b, d.FileNum)
	}
	if e.SetNextFile {
		b = binary.AppendUvarint(b, tagNextFile)
		b = binary.AppendUvarint(b, e.NextFile)
	}
	if e.SetLastSeq {
		b = binary.AppendUvarint(b, tagLastSeq)
		b = binary.AppendUvarint(b, uint64(e.LastSeq))
	}
	if e.SetLogNum {
		b = binary.AppendUvarint(b, tagLogNum)
		b = binary.AppendUvarint(b, e.LogNum)
	}
	if e.SetLevels {
		b = binary.AppendUvarint(b, tagLevels)
		b = binary.AppendUvarint(b, uint64(e.NumLevels))
	}
	return b
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func decodeEdit(rec []byte) (*Edit, error) {
	e := &Edit{}
	p := rec
	u := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, ErrCorrupt
		}
		p = p[n:]
		return v, nil
	}
	bs := func() ([]byte, error) {
		n, err := u()
		if err != nil || uint64(len(p)) < n {
			return nil, ErrCorrupt
		}
		out := append([]byte(nil), p[:n]...)
		p = p[n:]
		return out, nil
	}
	for len(p) > 0 {
		tag, err := u()
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagAdded:
			lvl, err := u()
			if err != nil {
				return nil, err
			}
			fn, err := u()
			if err != nil {
				return nil, err
			}
			lo, err := bs()
			if err != nil {
				return nil, err
			}
			hi, err := bs()
			if err != nil {
				return nil, err
			}
			e.Added = append(e.Added, NodeRecord{Level: int(lvl), FileNum: fn, Lo: lo, Hi: hi})
		case tagDeleted:
			lvl, err := u()
			if err != nil {
				return nil, err
			}
			fn, err := u()
			if err != nil {
				return nil, err
			}
			e.Deleted = append(e.Deleted, NodeRef{Level: int(lvl), FileNum: fn})
		case tagNextFile:
			v, err := u()
			if err != nil {
				return nil, err
			}
			e.NextFile, e.SetNextFile = v, true
		case tagLastSeq:
			v, err := u()
			if err != nil {
				return nil, err
			}
			e.LastSeq, e.SetLastSeq = kv.Seq(v), true
		case tagLogNum:
			v, err := u()
			if err != nil {
				return nil, err
			}
			e.LogNum, e.SetLogNum = v, true
		case tagLevels:
			v, err := u()
			if err != nil {
				return nil, err
			}
			e.NumLevels, e.SetLevels = int(v), true
		default:
			return nil, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tag)
		}
	}
	return e, nil
}

// State is the materialized tree metadata after replaying all edits.
type State struct {
	Levels    [][]NodeRecord // Levels[i] sorted by Lo once Replay returns
	NextFile  uint64
	LastSeq   kv.Seq
	LogNum    uint64
	NumLevels int
}

// Apply folds one edit into the state.  A level keeps its records in
// the order the edits added them; Replay sorts each level once, after
// the last edit.
func (s *State) Apply(e *Edit) error {
	for _, d := range e.Deleted {
		if d.Level >= len(s.Levels) {
			return fmt.Errorf("%w: delete on level %d beyond %d", ErrCorrupt, d.Level, len(s.Levels))
		}
		lvl := s.Levels[d.Level]
		idx := -1
		for i, n := range lvl {
			if n.FileNum == d.FileNum {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("%w: delete of absent file %d on level %d", ErrCorrupt, d.FileNum, d.Level)
		}
		s.Levels[d.Level] = append(lvl[:idx], lvl[idx+1:]...)
	}
	for _, n := range e.Added {
		for len(s.Levels) <= n.Level {
			s.Levels = append(s.Levels, nil)
		}
		s.Levels[n.Level] = append(s.Levels[n.Level], n)
	}
	if e.SetNextFile {
		s.NextFile = e.NextFile
	}
	if e.SetLastSeq {
		s.LastSeq = e.LastSeq
	}
	if e.SetLogNum {
		s.LogNum = e.LogNum
	}
	if e.SetLevels {
		s.NumLevels = e.NumLevels
	}
	return nil
}

// Snapshot renders the whole state as a single edit, used to compact
// the manifest on open.
func (s *State) Snapshot() *Edit {
	e := &Edit{
		NextFile: s.NextFile, SetNextFile: true,
		LastSeq: s.LastSeq, SetLastSeq: true,
		LogNum: s.LogNum, SetLogNum: true,
		NumLevels: s.NumLevels, SetLevels: true,
	}
	for _, lvl := range s.Levels {
		e.Added = append(e.Added, lvl...)
	}
	return e
}

// Log appends edits durably to a manifest file.
type Log struct {
	f vfs.File
	w *wal.Writer
}

// Create starts a fresh manifest at name, writing an initial snapshot
// of st (which may be empty).
func Create(fs vfs.FS, name string, st *State) (*Log, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, w: wal.NewWriter(f)}
	if err := l.Append(st.Snapshot()); err != nil {
		_ = f.Close()
		return nil, err
	}
	return l, nil
}

// Append writes one edit and syncs.
func (l *Log) Append(e *Edit) error {
	if err := l.w.Append(e.encode()); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close releases the manifest file.
func (l *Log) Close() error { return l.f.Close() }

// Replay loads the state from a manifest file: a torn final append
// (crash mid-Append) is tolerated and reported via dropped > 0 so the
// caller can flag the regression, but mid-log corruption — damage with
// valid edits after it — aborts with a *corrupt.Error naming the
// manifest rather than silently replaying a truncated history.
// Malformed or inapplicable edits behind a valid checksum abort the
// same way.
func Replay(fs vfs.FS, name string) (*State, int64, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st := &State{}
	dropped, err := wal.Replay(f, name, func(rec []byte) error {
		e, err := decodeEdit(rec)
		if err != nil {
			return corrupt.New(corrupt.LayerManifest, name, -1,
				errors.Join(ErrCorrupt, err), "edit record malformed")
		}
		if err := st.Apply(e); err != nil {
			return corrupt.New(corrupt.LayerManifest, name, -1,
				errors.Join(ErrCorrupt, err), "edit not applicable to replayed state")
		}
		return nil
	})
	if err != nil {
		return nil, dropped, err
	}
	// Stable: records with the same Lo (overlapping level-0 tables) keep
	// the order their edits added them.
	for _, lvl := range st.Levels {
		slices.SortStableFunc(lvl, func(a, b NodeRecord) int { return kv.CompareUser(a.Lo, b.Lo) })
	}
	return st, dropped, nil
}
