package iamdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iamdb/internal/vfs"
)

// Scrub contract: a clean store verifies end to end with no findings; a
// store with a rotted table block is detected, reported, counted and
// quarantined without stopping the pass; Metrics and the debug
// endpoints reflect both.

// buildScrubDB loads and flushes a store.  inline runs its background
// work on the writer: no worker can merge a table away between a test
// damaging it and the scrub quarantining it.
func buildScrubDB(t *testing.T, e EngineKind, inline bool) (*DB, vfs.FS) {
	t.Helper()
	fs := vfs.NewMemFS()
	opts := smallOpts(e, fs)
	opts.InlineBackground = inline
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%05d", i%1500)
		if err := db.Put([]byte(k), []byte(fmt.Sprintf("v%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, fs
}

func TestScrubCleanStore(t *testing.T) {
	for _, e := range allEngines {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			db, _ := buildScrubDB(t, e, false)
			defer db.Close()
			rep, err := db.Scrub()
			if err != nil {
				t.Fatalf("scrub of clean store: %v", err)
			}
			if rep.Tables == 0 || rep.Blocks == 0 || rep.Bytes == 0 {
				t.Fatalf("scrub covered nothing: %s", rep.String())
			}
			if len(rep.Corruptions) != 0 || rep.Quarantined != 0 {
				t.Fatalf("clean store reported findings: %s", rep.String())
			}
			if m := db.Metrics(); m.ScrubBlocks != rep.Blocks {
				t.Fatalf("ScrubBlocks %d != report blocks %d", m.ScrubBlocks, rep.Blocks)
			}
		})
	}
}

func TestScrubDetectsAndQuarantines(t *testing.T) {
	for _, e := range []EngineKind{IAM, LevelDB} {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			// MSTable files are preallocated to capacity with data written
			// from the head; damage the written extent, not unused space.
			t.Run("data blocks", func(t *testing.T) {
				scrubFindsDamage(t, e, func(int64, uint64) []int64 { return []int64{100, 600, 1200} })
			})
			// One byte of the footer slot the table is committed in: every
			// block still verifies, and the next reopen would fall back a
			// generation and serve the older values.  Scrub says so now.
			t.Run("committed footer", func(t *testing.T) {
				scrubFindsDamage(t, e, func(size int64, gen uint64) []int64 {
					return []int64{size - 96 + int64(gen%2)*48 + 20}
				})
			})
		})
	}
}

// scrubFindsDamage flips the bytes offsets picks (given the file's size
// and the generation of its newest footer) in one live table of a loaded
// store and wants the running store's Scrub to find, attribute, count and
// quarantine — before any reopen.
func scrubFindsDamage(t *testing.T, e EngineKind, offsets func(size int64, gen uint64) []int64) {
	db, fs := buildScrubDB(t, e, true)
	defer db.Close()
	victim := damageTable(t, fs, offsets)

	rep, err := db.Scrub()
	if err == nil {
		t.Fatalf("scrub missed the damage: %s", rep.String())
	}
	if !IsCorruption(err) {
		t.Fatalf("scrub failed with untyped error: %v", err)
	}
	ce := AsCorruption(err)
	if ce.Path != victim {
		t.Fatalf("corruption attributed to %q, want %q", ce.Path, victim)
	}
	if len(rep.Corruptions) == 0 {
		t.Fatal("report lists no corruptions")
	}
	if rep.Quarantined == 0 {
		t.Fatal("damaged table was not quarantined")
	}
	m := db.Metrics()
	if m.CorruptionsDetected == 0 || m.TablesQuarantined == 0 {
		t.Fatalf("counters: %d detected, %d quarantined",
			m.CorruptionsDetected, m.TablesQuarantined)
	}

	// The store keeps serving: each key either reads correctly or
	// fails typed; nothing panics, nothing returns wrong bytes.
	var served, failed int
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("k%05d", i)
		v, gerr := db.Get([]byte(k))
		switch {
		case gerr == nil:
			if !strings.HasPrefix(string(v), "v") {
				t.Fatalf("key %s returned garbage %q", k, v)
			}
			served++
		case gerr == ErrNotFound, IsCorruption(gerr):
			failed++
		default:
			t.Fatalf("key %s: untyped error %v", k, gerr)
		}
	}
	if served == 0 {
		t.Fatal("no key readable after quarantine")
	}

	rec := httptest.NewRecorder()
	db.DebugHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/levels", nil))
	if !strings.Contains(rec.Body.String(), "quarantined") {
		t.Fatalf("/levels does not show quarantine:\n%s", rec.Body.String())
	}
}

// damageTable flips the bytes offsets picks in the first table file of
// the store in fs's "db" directory and returns that file's path.
func damageTable(t *testing.T, fs vfs.FS, offsets func(size int64, gen uint64) []int64) string {
	t.Helper()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, n := range names {
		if strings.HasSuffix(n, ".mst") {
			victim = "db/" + n
			break
		}
	}
	if victim == "" {
		t.Fatal("no table file after flush")
	}
	size, gen := footerGeneration(t, fs, victim)
	for _, off := range offsets(size, gen) {
		if _, _, _, err := vfs.CorruptByte(fs, victim, off, vfs.RotFlip); err != nil {
			t.Fatal(err)
		}
	}
	return victim
}

// footerGeneration reads a table file's size and the higher generation of
// its two footer slots (FORMAT.md: the generation is bytes 36..44 of a
// 48-byte slot, the two slots end the file).
func footerGeneration(t *testing.T, fs vfs.FS, name string) (size int64, gen uint64) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if size, err = f.Size(); err != nil {
		t.Fatal(err)
	}
	var tail [96]byte
	if _, err := f.ReadAt(tail[:], size-96); err != nil {
		t.Fatal(err)
	}
	return size, max(binary.LittleEndian.Uint64(tail[36:44]), binary.LittleEndian.Uint64(tail[48+36:48+44]))
}

// TestScrubEndpointRunsPass: POST /scrub runs a pass on the request and
// answers with its report, so a damaged table shows in the summary, the
// findings and the error; any other method is refused.
func TestScrubEndpointRunsPass(t *testing.T) {
	db, fs := buildScrubDB(t, IAM, true)
	defer db.Close()
	victim := damageTable(t, fs, func(int64, uint64) []int64 { return []int64{100, 600, 1200} })
	h := db.DebugHandler(nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/scrub", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" {
		t.Fatalf("GET /scrub: code %d, Allow %q; want 405 naming POST", rec.Code, rec.Header().Get("Allow"))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/scrub", nil))
	var out struct {
		Summary  string
		Findings []string
		Err      string
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/scrub JSON: %v (%q)", err, rec.Body.String())
	}
	if !strings.Contains(out.Summary, "tables") || strings.Contains(out.Summary, " 0 corruptions") {
		t.Fatalf("summary does not name the corruption: %q", out.Summary)
	}
	if out.Err == "" || !strings.Contains(out.Err, victim) {
		t.Fatalf("error %q, want one naming %s", out.Err, victim)
	}
	if len(out.Findings) == 0 || !strings.Contains(out.Findings[0], victim) {
		t.Fatalf("findings %q, want the first naming %s", out.Findings, victim)
	}
}
