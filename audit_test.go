package iamdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// calledThroughInterfaces are methods only the standard library calls,
// through an interface the type satisfies: nothing in the module names
// them, and nothing should have to.
var calledThroughInterfaces = map[string]bool{
	"Unwrap": true, // errors.Is / errors.As
	// container/heap's heap.Interface.
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestEveryDeclarationIsReferenced keeps dead code from accumulating:
// every package-level func, method, type, var and const declared in a
// non-test file under internal/ or cmd/ must be referenced by name from
// somewhere else in the module's Go files (tests count: cross-package
// test infrastructure has to live in non-test files to be importable).
// Name-level matching is coarse — a method shares its name with every
// namesake — but it needs no type checker, and a declaration that
// nothing even names is certainly dead.
//
// The root package's unexported funcs and methods are audited too, by
// call form, since their names (size, flush, close) are everyone's
// variable names: a method counts as used when some file of the package
// selects it (x.name: a call, a method value, a method expression), a
// func when one calls it.
func TestEveryDeclarationIsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name string
		pos  token.Pos
	}
	var decls, rootFuncs, rootMethods []decl
	declared := map[token.Pos]bool{}
	used := map[string]bool{}
	rootSelected, rootCalled := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		audited := (strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")) &&
			!strings.HasSuffix(path, "_test.go") && !strings.Contains(path, "/testdata/")
		if audited {
			add := func(id *ast.Ident) {
				if id.Name == "_" || id.Name == "main" || id.Name == "init" || calledThroughInterfaces[id.Name] {
					return
				}
				declared[id.Pos()] = true
				decls = append(decls, decl{id.Name, id.Pos()})
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								add(name)
							}
						}
					}
				}
			}
		}
		inRoot := !strings.Contains(path, "/")
		if inRoot && !strings.HasSuffix(path, "_test.go") {
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && !fn.Name.IsExported() && fn.Name.Name != "init" {
					if fn.Recv != nil {
						rootMethods = append(rootMethods, decl{fn.Name.Name, fn.Name.Pos()})
					} else {
						rootFuncs = append(rootFuncs, decl{fn.Name.Name, fn.Name.Pos()})
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n.Pos()] {
					used[n.Name] = true
				}
			case *ast.SelectorExpr:
				if inRoot {
					rootSelected[n.Sel.Name] = true
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && inRoot {
					rootCalled[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no declarations: the test must run in the module root")
	}
	for _, d := range decls {
		if !used[d.name] {
			t.Errorf("%s: %s is referenced nowhere in the module: delete it, or list it in calledThroughInterfaces",
				fset.Position(d.pos), d.name)
		}
	}
	if len(rootFuncs) == 0 || len(rootMethods) == 0 {
		t.Fatal("found no unexported funcs or methods in the root package")
	}
	for _, d := range rootMethods {
		if !rootSelected[d.name] {
			t.Errorf("%s: method %s is selected nowhere in the root package: delete it", fset.Position(d.pos), d.name)
		}
	}
	for _, d := range rootFuncs {
		if !rootCalled[d.name] {
			t.Errorf("%s: func %s is called nowhere in the root package: delete it", fset.Position(d.pos), d.name)
		}
	}
}

// TestEnginesDoNotImportManifest is the boundary PR 17 drew: the engines
// state placement (tableset.Change) and tableset alone renders it as
// manifest edits.  With the range field of tableset.Table unexported, an
// engine that cannot import the manifest package cannot write a placement
// down by hand again.
func TestEnginesDoNotImportManifest(t *testing.T) {
	for _, dir := range []string{"internal/core", "internal/lsm"} {
		files, err := filepath.Glob(dir + "/*.go")
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %d files, %v: the test must run in the module root", dir, len(files), err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range file.Imports {
				if imp.Path.Value == `"iamdb/internal/manifest"` {
					t.Errorf("%s imports internal/manifest: publish the change through tableset.Set.Apply", path)
				}
			}
		}
	}
}

// receiverMethods returns the names of the methods the non-test files of
// dir declare on the named type (by value or by pointer).
func receiverMethods(t *testing.T, dir, typeName string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(dir + "/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: %d files, %v: the test must run in the module root", dir, len(files), err)
	}
	methods := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == typeName {
				methods[fn.Name.Name] = true
			}
		}
	}
	return methods
}

// TestEngineContractIsPolicy keeps engine.Engine to the calls the two
// engine families answer differently: every method of the interface must
// be declared by core.Tree and by lsm.DB themselves.  One that either
// satisfies only by promotion from the *tableset.Set it embeds has a
// single implementation, so the store should ask its set for it instead.
func TestEngineContractIsPolicy(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "internal/engine/engine.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var contract []string
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Engine" {
			for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
				for _, name := range m.Names {
					contract = append(contract, name.Name)
				}
			}
		}
		return true
	})
	if len(contract) == 0 {
		t.Fatal("found no methods in engine.Engine")
	}
	tree, db := receiverMethods(t, "internal/core", "Tree"), receiverMethods(t, "internal/lsm", "DB")
	for _, m := range contract {
		if !tree[m] || !db[m] {
			t.Errorf("engine.Engine.%s: declared by core.Tree %v, by lsm.DB %v: a method only tableset.Set implements is not policy",
				m, tree[m], db[m])
		}
	}
}

// TestOnlySchedulerStartsGoroutines keeps the DB's goroutines to its
// scheduler's workers: the root package's non-test files hold exactly one
// go statement, sched.start's, so everything else runs on a caller's
// goroutine and Close has nothing else to join.
func TestOnlySchedulerStartsGoroutines(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("%d files, %v: the test must run in the module root", len(files), err)
	}
	fset := token.NewFileSet()
	var sites []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				sites = append(sites, fset.Position(g.Pos()).String())
			}
			return true
		})
	}
	if len(sites) != 1 || !strings.HasPrefix(sites[0], "sched.go:") {
		t.Errorf("go statements in the root package: %q; want exactly one, in sched.go", sites)
	}
}
