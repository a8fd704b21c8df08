package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// determinismScope lists package-path suffixes that must stay
// deterministic: the virtual-clock disk model and everything the
// simulation harness replays.  Wall-clock time, ambient randomness and
// direct OS access would make runs non-reproducible.
var determinismScope = []string{
	"internal/core",
	"internal/harness",
	"internal/metrics",
	"internal/tableset", // the substrate under internal/core inherits its obligation
	"internal/trace",
	"internal/vfs",
}

func deterministicScoped(p *pkg) bool {
	if p.deterministic {
		return true
	}
	for _, s := range determinismScope {
		if p.path == s || strings.HasSuffix(p.path, "/"+s) {
			return true
		}
	}
	return false
}

// timeDeny covers wall-clock reads and real sleeps.  Pure value
// constructors (time.Duration, time.Unix) and conversions stay legal.
var timeDeny = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// osDeny covers filesystem and environment access; vfs.FS is the only
// sanctioned route.  (os.Exit & friends are left to other tooling.)
var osDeny = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Mkdir": true,
	"MkdirAll": true, "MkdirTemp": true, "ReadDir": true, "ReadFile": true,
	"WriteFile": true, "Stat": true, "Lstat": true, "Chmod": true,
	"Chtimes": true, "Truncate": true, "Link": true, "Symlink": true,
	"Getwd": true, "Chdir": true, "TempDir": true, "Getenv": true,
	"LookupEnv": true, "Setenv": true, "Environ": true,
}

// determinism flags calls that break replayability inside the
// deterministic packages: wall-clock time, package-level (globally
// seeded) math/rand, and direct os filesystem access.  Methods on an
// explicitly constructed *rand.Rand are fine — the harness seeds one.
func determinism(p *pkg, emit func(diag)) {
	if !deterministicScoped(p) {
		return
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.funcFor(call)
			if fn == nil {
				return true
			}
			path, name := pkgPathOf(fn), fn.Name()
			var why string
			switch {
			case path == "time" && timeDeny[name]:
				why = "reads the wall clock; use the vfs DiskClock / virtual time"
			case path == "math/rand" || path == "math/rand/v2":
				// Package-level funcs share a global source; methods on a
				// seeded *rand.Rand have a receiver and are allowed, as are
				// the New*/constructor funcs used to build one.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if strings.HasPrefix(name, "New") {
					return true
				}
				why = "uses the globally-seeded rand source; construct rand.New(rand.NewSource(seed))"
			case path == "crypto/rand":
				why = "crypto/rand is non-deterministic; use a seeded math/rand source"
			case path == "os" && osDeny[name]:
				why = "touches the real OS; go through vfs.FS"
			case path == "io/ioutil":
				why = "io/ioutil touches the real OS; go through vfs.FS"
			default:
				return true
			}
			emit(diag{
				pass: "determinism",
				pos:  p.fset.Position(call.Pos()),
				msg:  fmt.Sprintf("%s.%s %s", lastSeg(path), name, why),
			})
			return true
		})
	}
}

func lastSeg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
