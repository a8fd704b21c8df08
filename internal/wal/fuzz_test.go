package wal

import (
	"errors"
	"testing"

	"iamdb/internal/corrupt"
	"iamdb/internal/vfs"
)

// FuzzWALReplay feeds arbitrary bytes to strict replay: it must never
// panic, and its error is always the typed corruption error — valid
// records come back byte-identical, everything else is attributed
// damage or a tolerated torn tail, never an unexplained failure.
func FuzzWALReplay(f *testing.F) {
	seed := func(recs ...[]byte) []byte {
		fs := vfs.NewMemFS()
		wf, err := fs.Create("seed.log")
		if err != nil {
			f.Fatal(err)
		}
		w := NewWriter(wf)
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				f.Fatal(err)
			}
		}
		size, _ := wf.Size()
		buf := make([]byte, size)
		if _, err := wf.ReadAt(buf, 0); err != nil {
			f.Fatal(err)
		}
		wf.Close()
		return buf
	}
	f.Add([]byte{})
	f.Add(seed([]byte("hello")))
	f.Add(seed([]byte("one"), []byte("two"), make([]byte, 300)))
	torn := seed([]byte("first"), []byte("second"))
	f.Add(torn[:len(torn)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMemFS()
		wf, err := fs.Create("f.log")
		if err != nil {
			t.Fatal(err)
		}
		defer wf.Close()
		if _, err := wf.Write(data); err != nil {
			t.Fatal(err)
		}
		var records int
		dropped, rerr := Replay(wf, "f.log", func(rec []byte) error {
			records++
			return nil
		})
		if dropped < 0 {
			t.Fatalf("negative dropped byte count %d", dropped)
		}
		if rerr != nil {
			var ce *corrupt.Error
			if !errors.As(rerr, &ce) {
				t.Fatalf("replay failed with untyped error: %v", rerr)
			}
			if ce.Path == "" {
				t.Fatalf("typed replay error names no file: %v", rerr)
			}
		}
	})
}
