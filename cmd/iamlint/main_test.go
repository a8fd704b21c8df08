package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixtures under testdata/ are real packages (go list skips
// testdata dirs, so `./...` never lints them).  Bad fixtures carry
// `// want [pass] substring` comments on the line each diagnostic must
// anchor to; the tests assert the emitted set matches exactly.

// runRendered is run() with each diagnostic formatted the way main
// prints it: "file:line: [pass] msg".
func runRendered(patterns []string) ([]string, error) {
	diags, err := run(patterns)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out, nil
}

func TestGoodFixtureIsClean(t *testing.T) {
	diags, err := runRendered([]string{"./testdata/good"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("good fixture produced diagnostics:\n%s", strings.Join(diags, "\n"))
	}
}

// TestDetermClockFixtureIsClean proves the determinism pass accepts
// the injected metrics.Clock pattern: a package in scope may read time
// through a Clock (disk clock, manual clock) without tripping the
// wall-clock checks that still reject time.Now (see determbad).
func TestDetermClockFixtureIsClean(t *testing.T) {
	diags, err := runRendered([]string{"./testdata/determclock"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("determclock fixture produced diagnostics:\n%s", strings.Join(diags, "\n"))
	}
}

// TestDetermTraceFixtureIsClean proves the determinism pass accepts
// the clock-injected trace.Recorder pattern: spans, lineage and both
// exporters read time only through the injected clock.
func TestDetermTraceFixtureIsClean(t *testing.T) {
	diags, err := runRendered([]string{"./testdata/determtrace"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("determtrace fixture produced diagnostics:\n%s", strings.Join(diags, "\n"))
	}
}

// TestDeterminismScope pins the package set the determinism pass
// covers; internal/metrics and internal/trace must stay in scope so
// the observability layer can never regress to ambient time.
func TestDeterminismScope(t *testing.T) {
	for _, path := range []string{
		"iamdb/internal/core", "iamdb/internal/harness",
		"iamdb/internal/metrics", "iamdb/internal/trace",
		"iamdb/internal/vfs",
	} {
		if !deterministicScoped(&pkg{path: path}) {
			t.Errorf("%s not in determinism scope", path)
		}
	}
	for _, path := range []string{"iamdb", "iamdb/cmd/iambench"} {
		if deterministicScoped(&pkg{path: path}) {
			t.Errorf("%s unexpectedly in determinism scope", path)
		}
	}
}

// badFixtures are the fixture directories that must produce findings;
// lockorderxpkg holds two packages, hence the patterns' "/...".
var badFixtures = []string{
	"lockbad", "ioerrbad", "determbad", "aliasbad", "atomicpubbad",
	"lockorderbad", "lockorderxpkg", "goexitbad",
}

func TestBadFixtures(t *testing.T) {
	for _, dir := range badFixtures {
		t.Run(dir, func(t *testing.T) {
			pattern := "./testdata/" + dir + "/..."
			diags, err := runRendered([]string{pattern})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(diags) == 0 {
				t.Fatalf("bad fixture %s produced no diagnostics", dir)
			}
			checkWants(t, filepath.Join("testdata", dir), diags)
		})
	}
}

// TestAllBadFixturesTogether mirrors how check.sh proves the tool's
// exit path: linting every bad fixture at once must find everything.
func TestAllBadFixturesTogether(t *testing.T) {
	var patterns []string
	for _, dir := range badFixtures {
		patterns = append(patterns, "./testdata/"+dir+"/...")
	}
	diags, err := runRendered(patterns)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := 0
	for _, dir := range badFixtures {
		want += len(loadWants(t, filepath.Join("testdata", dir)))
	}
	if len(diags) != want {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), want, strings.Join(diags, "\n"))
	}
}

type want struct {
	file string
	line int
	pass string
	sub  string
}

var wantRe = regexp.MustCompile(`// want \[(\w+)\] (.+)$`)

// loadWants collects the `// want` expectations of every .go file in
// dir.
func loadWants(t *testing.T, dir string) []want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wants = append(wants, want{
				file: path,
				line: i + 1,
				pass: m[1],
				sub:  strings.TrimSpace(m[2]),
			})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no // want comments found in %s", dir)
	}
	return wants
}

// checkWants matches diagnostics ("file:line: [pass] msg") against the
// fixture's expectations one-to-one.
func checkWants(t *testing.T, dir string, diags []string) {
	t.Helper()
	wants := loadWants(t, dir)
	matched := make([]bool, len(diags))
outer:
	for _, w := range wants {
		prefix := fmt.Sprintf("%s:%d: [%s] ", w.file, w.line, w.pass)
		for i, d := range diags {
			if !matched[i] && strings.HasPrefix(d, prefix) && strings.Contains(d, w.sub) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("missing diagnostic %q containing %q", prefix, w.sub)
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestDirectiveValidation pins the directive pass: an unknown
// directive kind and a misspelled pass name are diagnostics, and the
// misspelled suppression leaves the underlying finding unsuppressed.
func TestDirectiveValidation(t *testing.T) {
	diags, err := runRendered([]string{"./testdata/directivebad"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wants := []string{
		`[directive] unknown iamlint directive "bogus knob"`,
		`[directive] unknown pass "lockchek"`,
		`[lockcheck] b.mu.Lock()`,
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), strings.Join(diags, "\n"))
	}
outer:
	for _, w := range wants {
		for _, d := range diags {
			if strings.Contains(d, w) {
				continue outer
			}
		}
		t.Errorf("missing diagnostic containing %q in:\n%s", w, strings.Join(diags, "\n"))
	}
}

// TestJSONOutput pins the -json wire form: one object per line with
// pass, file, line and msg fields.
func TestJSONOutput(t *testing.T) {
	diags, err := run([]string{"./testdata/goexitbad"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("goexitbad produced no diagnostics")
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	for _, d := range diags {
		if err := enc.Encode(jsonDiag{Pass: d.pass, File: d.pos.Filename, Line: d.pos.Line, Msg: d.msg}); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(diags) {
		t.Fatalf("got %d JSON lines for %d diagnostics", len(lines), len(diags))
	}
	for _, line := range lines {
		var d jsonDiag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if d.Pass == "" || d.File == "" || d.Line == 0 || d.Msg == "" {
			t.Errorf("JSON diagnostic missing fields: %q", line)
		}
	}
}

// TestEveryPassCatchesARealMutation is the standing answer to "why is
// this pass here": each pass must flag, in the repository's own packages
// and on the edited line, a bug a person could plausibly write — which
// neither `go vet` nor the compiler reports.  The edits are applied
// together to one temporary copy of the module and linted in one run.  A
// pass with no row, or whose row stops being flagged, has lost its claim
// to its lines: a pass that tracked sync-before-manifest-edit went this
// way, having flagged neither a deleted tbl.Sync() in tableset.Build nor a
// dropped kid.Sync() in core.appendToChild, both of which the crash matrix
// fails on in seconds (DESIGN.md, "Static analysis & invariants").
func TestEveryPassCatchesARealMutation(t *testing.T) {
	mutations := []struct {
		pass, file string
		old, new   string
		at         string // the part of new on the line the diagnostic names
	}{
		// DB.write takes a store's commit lock inside its hold of the
		// sequencer's, against "commitMu < Sequencer.Mu".
		{"lockorder", "db.go",
			"\tdb.seqr.Mu.Unlock()\n\tvar firstErr error",
			"\tops[0].st.commitMu.Lock()\n\tops[0].st.commitMu.Unlock()\n\tdb.seqr.Mu.Unlock()\n\tvar firstErr error",
			"commitMu.Lock()"},
		// The drain step records the WAL position with st.mu held: a static
		// call into another package takes tableset.Set.Mu, against an order
		// that declares no "iamdb.store.mu < tableset.Set.Mu".
		{"lockorder", "store.go",
			"\tif err := st.set.SetLogMeta(head.lastSeq, nextWal); err != nil {\n",
			"\tst.mu.Lock()\n\terr := st.set.SetLogMeta(head.lastSeq, nextWal)\n\tst.mu.Unlock()\n\tif err != nil {\n",
			"st.set.SetLogMeta"},
		// The commit-error path takes the sequencer's lock after an early
		// return that released st.mu only on its own branch: the path
		// that falls through still holds st.mu, and no clause declares
		// "iamdb.store.mu < Sequencer.Mu".
		{"lockorder", "store.go",
			"\t\treturn 0\n\t}\n\tif st.bgErr == nil {",
			"\t\treturn 0\n\t}\n\tst.db.seqr.Mu.Lock()\n\tst.db.seqr.Mu.Unlock()\n\tif st.bgErr == nil {",
			"st.db.seqr.Mu.Lock()"},
		// store.resume returns ErrClosed with st.mu still held.
		{"lockcheck", "store.go",
			"\tif st.closed {\n\t\tst.mu.Unlock()\n\t\treturn ErrClosed\n\t}\n\tst.mu.Unlock()\n\tif err := st.set.Resume()",
			"\tif st.closed {\n\t\treturn ErrClosed\n\t}\n\tst.mu.Unlock()\n\tif err := st.set.Resume()",
			"return ErrClosed"},
		// The sequence writer drops the result of a block's device write.
		{"ioerr", "internal/table/table.go",
			"\tif _, err := w.t.f.WriteAt(enc, w.off); err != nil {\n\t\treturn err\n\t}\n",
			"\tw.t.f.WriteAt(enc, w.off)\n",
			"WriteAt"},
		// A step is started on a goroutine Close does not wait for.
		{"goexit", "sched.go",
			"\t\ts.st.wg.Add(1)\n\t\tgo func() {\n",
			"\t\tgo s.st.drainStep()\n\t\ts.st.wg.Add(1)\n\t\tgo func() {\n",
			"go s.st.drainStep()"},
		// The tree's flush reads the wall clock.
		{"", "internal/core/flush.go", "\t\"slices\"\n", "\t\"slices\"\n\t\"time\"\n", ""},
		{"determinism", "internal/core/flush.go",
			"\tdefer t.Mu.Unlock()\n",
			"\tdefer t.Mu.Unlock()\n\t_ = time.Now()\n",
			"time.Now()"},
		// The drain step trims the drained memtable off the queue readers
		// hold (newest first) instead of publishing a new one.
		{"atomicpub", "store.go",
			"\tst.imm = slices.Delete(st.imm, 0, 1)\n\tst.publishStateLocked()\n",
			"\tst.imm = slices.Delete(st.imm, 0, 1)\n\tview := st.state.Load()\n\tview.imm = view.imm[:len(view.imm)-1]\n",
			"view.imm = view.imm[:len(view.imm)-1]"},
		// Apply writes a level of the version readers hold instead of
		// its successor's copy.
		{"atomicpub", "internal/tableset/tableset.go",
			"\t\t\tnv.levels[d.level] = slices.Delete(lvl, j, j+1)\n",
			"\t\t\told.levels[d.level] = slices.Delete(lvl, j, j+1)\n",
			"old.levels[d.level]"},
		// Appended writes the table it re-publishes into the level the
		// current version's readers search.
		{"atomicpub", "internal/tableset/tableset.go",
			"\tnv.levels[level] = lvl\n\ts.publish(nv)\n",
			"\tnv.levels[level] = lvl\n\ts.cur.Load().levels[level][j] = lvl[j]\n\ts.publish(nv)\n",
			"s.cur.Load().levels[level][j]"},
		// An append adds its sequence to the list readers hold instead of
		// publishing the list it committed.
		{"atomicpub", "internal/table/table.go",
			"\tt.cur.Store(next)\n\treturn AppendResult{",
			"\tcur := t.cur.Load()\n\tcur.seqs = next.seqs\n\treturn AppendResult{",
			"cur.seqs = next.seqs"},
		// The user iterator keeps the inner iterator's value buffer.
		{"alias", "iterator.go",
			"it.val = append(it.val[:0], it.in.Value()...)",
			"it.val = it.in.Value()",
			"it.in.Value()"},
	}

	// The copy: go.mod and every non-test Go file outside bench/, testdata
	// and dot directories.
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || rel == "bench") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(tmp, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	mutated := map[string]string{} // file -> source with every edit in
	for _, m := range mutations {
		src, ok := mutated[m.file]
		if !ok {
			data, err := os.ReadFile(filepath.Join(tmp, m.file))
			if err != nil {
				t.Fatal(err)
			}
			src = string(data)
		}
		if n := strings.Count(src, m.old); n != 1 {
			t.Fatalf("%s mutation: its site occurs %d times in %s; restate the edit", m.pass, n, m.file)
		}
		mutated[m.file] = strings.Replace(src, m.old, m.new, 1)
	}
	for file, src := range mutated {
		if err := os.WriteFile(filepath.Join(tmp, file), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	diags, err := run([]string{"./..."})
	if err != nil {
		t.Fatalf("run on the mutated copy: %v", err)
	}
	tried := map[string]bool{"directive": true}
	for _, m := range mutations {
		if m.pass == "" {
			continue // an import the next row's edit needs
		}
		// Lines are taken with every edit in: two edits may share a file.
		src := mutated[m.file]
		line := 1 + strings.Count(src[:strings.Index(src, m.new)+strings.Index(m.new, m.at)], "\n")
		caught := false
		for _, d := range diags {
			if d.pass == m.pass && d.pos.Line == line && d.pos.Filename == filepath.Join(tmp, m.file) {
				caught = true
			}
		}
		if !caught {
			t.Errorf("%s did not flag its mutation at %s:%d", m.pass, m.file, line)
		}
		tried[m.pass] = true
	}
	for pass := range knownPasses {
		if !tried[pass] {
			t.Errorf("pass %s has no mutation to catch", pass)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("%s", d)
		}
	}
}

// TestDeclaredCycleIsReportedAtItsDirective pins the report of a
// hierarchy that contradicts itself: it is made once, at the directive,
// with no code taking the locks.
func TestDeclaredCycleIsReportedAtItsDirective(t *testing.T) {
	at := token.Position{Filename: "x.go", Line: 3}
	pr := &program{fset: token.NewFileSet(), pkgs: []*pkg{{
		lockDecls: []lockDecl{{text: "a.mu < b.mu; b.mu < c.mu; c.mu < a.mu", pos: at}},
	}}}
	var got []diag
	lockorder(pr, func(d diag) { got = append(got, d) })
	if len(got) != 1 || got[0].pos != at || !strings.Contains(got[0].msg, "permits a cycle") {
		t.Fatalf("got %v, want one cycle report at %v", got, at)
	}
}
