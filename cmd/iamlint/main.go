// Command iamlint is the repo's custom static analyzer.  It enforces
// invariants that generic tooling cannot know about — the discipline
// the IAM-tree's concurrent compaction model depends on.
//
// Passes over one package's syntax:
//
//	ioerr        no call into internal/vfs, internal/wal, internal/table
//	             or internal/manifest may silently discard an error
//	             result (write `_ = f.Close()` to discard on purpose;
//	             deferred cleanup calls are exempt)
//	determinism  the deterministic packages (internal/core,
//	             internal/harness, and internal/vfs's virtual-clock
//	             disk model) must not call time.Now, unseeded rand.*,
//	             or os filesystem functions — all time, randomness and
//	             I/O go through the vfs/clock abstractions
//	alias        keys/values returned by iterator Key()/Value() or
//	             block readers alias reused buffers; retaining one in a
//	             struct field, map, or slice without a copy is flagged
//	atomicpub    a struct published to readers through an
//	             atomic.Pointer[T] (skiplist nodes, the DB's
//	             read-state, the table set's versions, a table's
//	             committed sequences) is frozen once stored; plain-field
//	             writes are allowed only on provably fresh values
//	             (&T{...}, new(T), or a same-package new* constructor)
//
// Passes over the function summaries (summary.go: one path-sensitive
// walk per function body, recording what each path holds; and a
// type-resolved call graph where interface methods resolve to every
// implementation in the linted packages):
//
//	lockcheck    every mu.Lock() is released by a defer mu.Unlock() or
//	             an Unlock on every return path of the same function,
//	             and the release mode matches the acquire mode (an
//	             RLock released by Unlock is flagged)
//	lockorder    the inferred mutex-acquisition graph (which locks are
//	             held when each other lock is taken, propagated through
//	             calls) must match the //iamlint:lockorder declared
//	             hierarchy; cycles and undeclared edges are potential
//	             deadlocks
//	goexit       every `go` statement needs a provable join: WaitGroup
//	             Add before the spawn, Done in the body, Wait reachable
//	             from Close/Shutdown/Stop/main
//
// Diagnostics print as "file:line: [pass] message" (or one JSON
// object per line under -json) and the process exits 1 if any are
// found, 2 if the packages fail to load, 0 when clean.  Directives:
//
//	//iamlint:ignore pass[,pass]       on the offending line or the line above
//	//iamlint:file-ignore pass[,pass]  anywhere in a file, for the whole file
//	//iamlint:deterministic            opts a package file into the
//	                                   determinism pass scope (used by fixtures)
//	//iamlint:lockorder A < B; X leaf; P internal
//	                                   declares the lock hierarchy the
//	                                   lockorder pass checks against
//
// An unknown pass name or directive kind is itself a diagnostic
// (pass "directive").  Only the standard library is used: go/ast,
// go/parser, go/types and `go list -export` for export data, in the
// style of go/packages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic object per line")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	diags, err := run(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iamlint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			_ = enc.Encode(jsonDiag{
				Pass: d.pass,
				File: d.pos.Filename,
				Line: d.pos.Line,
				Msg:  d.msg,
			})
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "iamlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	Pass string `json:"pass"`
	File string `json:"file"`
	Line int    `json:"line"`
	Msg  string `json:"msg"`
}

// run loads the packages matched by patterns and applies every pass —
// the syntax passes per package, then the summary passes over the whole
// loaded program — returning diagnostics in file:line order.
func run(patterns []string) ([]diag, error) {
	pkgs, err := load(patterns)
	if err != nil {
		return nil, err
	}
	var all []diag
	for _, p := range pkgs {
		all = append(all, analyze(p)...)
	}
	all = append(all, analyzeProgram(buildProgram(pkgs))...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].pos.Filename != all[j].pos.Filename {
			return all[i].pos.Filename < all[j].pos.Filename
		}
		if all[i].pos.Line != all[j].pos.Line {
			return all[i].pos.Line < all[j].pos.Line
		}
		return all[i].msg < all[j].msg
	})
	return all, nil
}

// analyze runs the syntax passes over one loaded package,
// honouring the package's suppression directives.
func analyze(p *pkg) []diag {
	var diags []diag
	emit := func(d diag) {
		if !p.suppressed(d.pass, d.pos) {
			diags = append(diags, d)
		}
	}
	for _, d := range p.pending {
		emit(d)
	}
	ioerr(p, emit)
	determinism(p, emit)
	aliascheck(p, emit)
	atomicpub(p, emit)
	return diags
}
