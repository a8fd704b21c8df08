package vfs

import "fmt"

// RotMode selects how CorruptByte damages a byte.
type RotMode int

const (
	// RotFlip inverts every bit of the target byte (always changes it).
	RotFlip RotMode = iota
	// RotZero clears the target byte, modelling a decayed cell reading
	// back empty; zeroing an already-zero byte is provably harmless.
	RotZero
)

func (m RotMode) String() string {
	switch m {
	case RotFlip:
		return "flip"
	case RotZero:
		return "zero"
	default:
		return "unknown"
	}
}

// CorruptByte damages one byte of an existing file in place — the
// offline injection primitive behind the corruption-point matrix.  It
// returns the before/after values; changed is false when the damage was
// a no-op (zeroing an already-zero byte), i.e. provably harmless.
func CorruptByte(fs FS, name string, off int64, mode RotMode) (old, new byte, changed bool, err error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, 0, false, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return 0, 0, false, fmt.Errorf("vfs: corrupt read %s@%d: %w", name, off, err)
	}
	old = b[0]
	if mode == RotZero {
		b[0] = 0
	} else {
		b[0] = old ^ 0xff
	}
	if _, err := f.WriteAt(b[:], off); err != nil {
		return old, b[0], false, fmt.Errorf("vfs: corrupt write %s@%d: %w", name, off, err)
	}
	if err := f.Sync(); err != nil {
		return old, b[0], false, err
	}
	return old, b[0], b[0] != old, nil
}
