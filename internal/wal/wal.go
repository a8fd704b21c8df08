// Package wal implements the write-ahead log used for crash recovery,
// in the LevelDB log format the paper's IamDB inherits: the file is a
// sequence of 32 KiB blocks, and each user record is stored as one or
// more fragments, each carrying a CRC, so a torn tail after a crash is
// detected and discarded rather than misread.
//
//	fragment := checksum(4, little-endian CRC32-C of type+payload)
//	            length(2, little-endian)
//	            type(1: full, first, middle, last)
//	            payload(length bytes)
//
// A fragment never spans a block boundary; a block tail shorter than the
// 7-byte header is zero-padded.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"iamdb/internal/corrupt"
	"iamdb/internal/vfs"
)

// BlockSize is the log block size.
const BlockSize = 32 * 1024

const headerSize = 7

const (
	typeFull   = 1
	typeFirst  = 2
	typeMiddle = 3
	typeLast   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// typeCRC holds the checksum of each fragment type byte alone: a
// fragment's checksum continues it over the payload, so neither side
// copies the payload behind its type byte to checksum the two.
var typeCRC = func() (t [typeLast + 1]uint32) {
	for typ := range t {
		t[typ] = crc32.Checksum([]byte{byte(typ)}, castagnoli)
	}
	return t
}()

// fragmentCRC is the checksum of type‖payload.
func fragmentCRC(typ byte, payload []byte) uint32 {
	return crc32.Update(typeCRC[typ], castagnoli, payload)
}

// zeros pads a block tail too short for a fragment header.
var zeros [headerSize]byte

// ErrCorrupt reports a malformed or torn log record.  A Reader
// distinguishes the two cases a crash cannot: corruption at the tail
// with nothing after it is a torn write and ends iteration cleanly,
// surfacing only through the count of dropped bytes, but corruption
// *followed by a fragment with a valid checksum* proves mid-log damage
// — a torn tail only ever truncates — and Next returns a typed
// *corrupt.Error instead of silently shortening the log.
var ErrCorrupt = errors.New("wal: corrupt record")

// Writer appends records to a log file.  Append is single-writer (the
// DB's commit leader owns it); Offset may be read concurrently with an
// in-flight Append, which is why the byte count is atomic.
type Writer struct {
	f         vfs.File
	blockOff  int // bytes used in the current block
	written   atomic.Int64
	buf       []byte
	syncEvery bool
}

// NewWriter starts a log at the beginning of f.
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f, buf: make([]byte, 0, BlockSize)}
}

// SetSync makes every Append durable before returning.
func (w *Writer) SetSync(on bool) { w.syncEvery = on }

// Append writes one record, fragmenting across blocks as needed.
func (w *Writer) Append(rec []byte) error {
	first := true
	for {
		avail := BlockSize - w.blockOff
		if avail < headerSize {
			// Zero-fill the tail and move to a fresh block.
			if avail > 0 {
				if _, err := w.f.Write(zeros[:avail]); err != nil {
					return err
				}
				w.written.Add(int64(avail))
			}
			w.blockOff = 0
			avail = BlockSize
		}
		frag := rec
		if len(frag) > avail-headerSize {
			frag = rec[:avail-headerSize]
		}
		rec = rec[len(frag):]
		last := len(rec) == 0

		var typ byte
		switch {
		case first && last:
			typ = typeFull
		case first:
			typ = typeFirst
		case last:
			typ = typeLast
		default:
			typ = typeMiddle
		}

		w.buf = w.buf[:0]
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], fragmentCRC(typ, frag))
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(frag)))
		hdr[6] = typ
		w.buf = append(w.buf, hdr[:]...)
		w.buf = append(w.buf, frag...)
		if _, err := w.f.Write(w.buf); err != nil {
			return err
		}
		w.blockOff += headerSize + len(frag)
		w.written.Add(int64(headerSize + len(frag)))

		if last {
			if w.syncEvery {
				return w.f.Sync()
			}
			return nil
		}
		first = false
	}
}

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Offset reports the bytes written to this log so far, including
// fragment headers and block padding.
func (w *Writer) Offset() int64 { return w.written.Load() }

// Reader replays records from a log file.
type Reader struct {
	f        vfs.File
	off      int64
	blockOff int
	block    [BlockSize]byte
	blockLen int
	// Dropped counts bytes skipped over corruption.
	Dropped int64

	name    string
	pending *corrupt.Error // first corruption seen, awaiting tail/mid-log verdict
}

// NewReader reads the log in f from the start; name attributes the
// corruption errors Next returns.
func NewReader(f vfs.File, name string) *Reader { return &Reader{f: f, name: name} }

// note records the first corruption the reader encounters; the verdict
// (tolerated tail tear vs fatal mid-log damage) is deferred until the
// scan either ends or finds valid data beyond it.
func (r *Reader) note(off int64, got, want uint32, detail string) {
	if r.pending == nil {
		r.pending = corrupt.New(corrupt.LayerWAL, r.name, off, ErrCorrupt, detail).WithCRC(got, want)
	}
}

func (r *Reader) refill() error {
	n, err := r.f.ReadAt(r.block[:], r.off)
	r.blockLen = n
	r.blockOff = 0
	r.off += int64(n)
	if n == 0 {
		if err == nil || err == io.EOF {
			return io.EOF
		}
		return err
	}
	return nil
}

// Next returns the next complete record, or io.EOF at the end of the
// log.  Corruption at the tail (torn write) ends iteration with Dropped
// advanced; corruption followed by a further valid fragment aborts with
// a *corrupt.Error attributed to the reader's name.
func (r *Reader) Next() ([]byte, error) {
	var rec []byte
	inFragmented := false
	for {
		if r.blockOff+headerSize > r.blockLen {
			// Skip block padding.
			if err := r.refill(); err != nil {
				if inFragmented {
					r.Dropped += int64(len(rec))
				}
				return nil, io.EOF
			}
		}
		hdr := r.block[r.blockOff : r.blockOff+headerSize]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		typ := hdr[6]
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		fragOff := r.off - int64(r.blockLen) + int64(r.blockOff)

		if typ == 0 && length == 0 && wantCRC == 0 {
			// Zero padding: rest of this block is empty.
			r.blockOff = r.blockLen
			continue
		}
		if r.blockOff+headerSize+length > r.blockLen || typ < typeFull || typ > typeLast {
			// Torn or garbage fragment: drop the rest of the block.
			r.note(fragOff, 0, 0, "torn or garbage fragment header")
			r.Dropped += int64(r.blockLen - r.blockOff)
			r.blockOff = r.blockLen
			rec, inFragmented = nil, false
			continue
		}
		payload := r.block[r.blockOff+headerSize : r.blockOff+headerSize+length]
		crc := fragmentCRC(typ, payload)
		if crc != wantCRC {
			r.note(fragOff, wantCRC, crc, "fragment checksum mismatch")
			r.Dropped += int64(headerSize + length)
			r.blockOff = r.blockLen
			rec, inFragmented = nil, false
			continue
		}
		if r.pending != nil {
			// A fragment with a valid checksum beyond the damage: a torn
			// tail only truncates, so this is mid-log corruption.  Abort
			// loudly rather than silently shortening the replay.
			return nil, r.pending
		}
		r.blockOff += headerSize + length

		switch typ {
		case typeFull:
			if inFragmented {
				r.Dropped += int64(len(rec))
			}
			return append([]byte(nil), payload...), nil
		case typeFirst:
			if inFragmented {
				r.Dropped += int64(len(rec))
			}
			rec = append(rec[:0], payload...)
			inFragmented = true
		case typeMiddle:
			if !inFragmented {
				// An orphan continuation implies its first fragment was
				// destroyed in place — truncation cannot leave one.
				r.note(fragOff, 0, 0, "orphan middle fragment")
				r.Dropped += int64(length)
				continue
			}
			rec = append(rec, payload...)
		case typeLast:
			if !inFragmented {
				r.note(fragOff, 0, 0, "orphan last fragment")
				r.Dropped += int64(length)
				continue
			}
			return append(rec, payload...), nil
		}
	}
}

// Replay reads every intact record of the log in f, invoking fn for
// each.  A torn tail (corruption with nothing valid after it) ends the
// replay cleanly with dropped > 0, but mid-log corruption — damage
// followed by a valid fragment — aborts with a *corrupt.Error
// attributed to name.
func Replay(f vfs.File, name string, fn func(rec []byte) error) (dropped int64, err error) {
	r := NewReader(f, name)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return r.Dropped, nil
		}
		if err != nil {
			return r.Dropped, err
		}
		if err := fn(rec); err != nil {
			return r.Dropped, fmt.Errorf("wal replay: %w", err)
		}
	}
}
