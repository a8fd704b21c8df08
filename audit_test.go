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
func TestEveryDeclarationIsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name string
		pos  token.Pos
	}
	var decls []decl
	declared := map[token.Pos]bool{}
	used := map[string]bool{}
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
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id.Pos()] {
				used[id.Name] = true
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
