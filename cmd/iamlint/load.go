package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// diag is one finding.
type diag struct {
	pass string
	pos  token.Position
	msg  string
}

func (d diag) String() string {
	name := d.pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d: [%s] %s", name, d.pos.Line, d.pass, d.msg)
}

// pkg is one loaded, parsed and type-checked package.
type pkg struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	tpkg  *types.Package

	// lineIgnores[file][line] holds passes suppressed at that line (a
	// diagnostic is suppressed by a directive on its own line or the
	// line above).  fileIgnores[file] suppresses for the whole file.
	lineIgnores map[string]map[int][]string
	fileIgnores map[string][]string
	// deterministic marks packages opted into the determinism pass by
	// an //iamlint:deterministic directive (fixtures use this).
	deterministic bool
	// lockDecls are the package's //iamlint:lockorder directives,
	// parsed by the lockorder pass.
	lockDecls []lockDecl
	// pending are diagnostics produced while scanning directives
	// (malformed directives, unknown pass names).
	pending []diag
}

// lockDecl is one unparsed //iamlint:lockorder directive.
type lockDecl struct {
	text string
	pos  token.Position
}

// knownPasses validates pass names in suppression directives; a typo
// there would silently suppress nothing.
var knownPasses = map[string]bool{
	"lockcheck":   true,
	"ioerr":       true,
	"determinism": true,
	"alias":       true,
	"atomicpub":   true,
	"lockorder":   true,
	"goexit":      true,
	"directive":   true,
}

func (p *pkg) suppressed(pass string, pos token.Position) bool {
	for _, ig := range p.fileIgnores[pos.Filename] {
		if ig == pass {
			return true
		}
	}
	lines := p.lineIgnores[pos.Filename]
	for _, ln := range []int{pos.Line, pos.Line - 1} {
		for _, ig := range lines[ln] {
			if ig == pass {
				return true
			}
		}
	}
	return false
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

func goList(args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args[:2], " "), err, errb.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load resolves patterns go/packages-style: `go list -export -deps`
// supplies compiled export data for every dependency, the targets
// themselves are parsed from source and type-checked against it.
func load(patterns []string) ([]*pkg, error) {
	fields := "-json=Dir,ImportPath,Export,GoFiles,Standard,Error"
	targets, err := goList(append([]string{"list", "-e", fields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	deps, err := goList(append([]string{"list", "-e", "-export", "-deps", fields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, d := range deps {
		if d.Export != "" {
			exports[d.ImportPath] = d.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	})

	var out []*pkg
	for _, t := range targets {
		// `go list -e` reports a typo'd pattern as an errored package
		// instead of failing; exiting 0 on it would be a silent no-op.
		if t.Error != nil {
			return nil, fmt.Errorf("loading %s: %s", t.ImportPath, t.Error.Err)
		}
		if t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		p, err := parseAndCheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func parseAndCheck(fset *token.FileSet, imp types.Importer, t listPkg) (*pkg, error) {
	p := &pkg{
		path:        t.ImportPath,
		fset:        fset,
		lineIgnores: make(map[string]map[int][]string),
		fileIgnores: make(map[string][]string),
	}
	for _, name := range t.GoFiles {
		full := filepath.Join(t.Dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", full, err)
		}
		p.files = append(p.files, f)
		p.scanDirectives(f)
	}
	p.info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		// The repo builds before linting; residual type errors (e.g. in
		// fixtures under construction) must not stop the passes.
		Error: func(error) {},
	}
	p.tpkg, _ = conf.Check(t.ImportPath, fset, p.files, p.info)
	return p, nil
}

// scanDirectives records //iamlint:... comments of one file.
func (p *pkg) scanDirectives(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "iamlint:") {
				continue
			}
			directive := strings.TrimPrefix(text, "iamlint:")
			pos := p.fset.Position(c.Pos())
			switch {
			case directive == "deterministic":
				p.deterministic = true
			case strings.HasPrefix(directive, "file-ignore "):
				passes := p.checkPasses(splitPasses(strings.TrimPrefix(directive, "file-ignore ")), pos)
				p.fileIgnores[pos.Filename] = append(p.fileIgnores[pos.Filename], passes...)
			case strings.HasPrefix(directive, "ignore "):
				passes := p.checkPasses(splitPasses(strings.TrimPrefix(directive, "ignore ")), pos)
				if p.lineIgnores[pos.Filename] == nil {
					p.lineIgnores[pos.Filename] = make(map[int][]string)
				}
				p.lineIgnores[pos.Filename][pos.Line] = append(p.lineIgnores[pos.Filename][pos.Line], passes...)
			case strings.HasPrefix(directive, "lockorder "):
				p.lockDecls = append(p.lockDecls, lockDecl{
					text: strings.TrimPrefix(directive, "lockorder "),
					pos:  pos,
				})
			default:
				p.pending = append(p.pending, diag{
					pass: "directive",
					pos:  pos,
					msg:  fmt.Sprintf("unknown iamlint directive %q (expect deterministic, ignore, file-ignore, or lockorder)", directive),
				})
			}
		}
	}
}

// checkPasses reports unknown pass names in a suppression directive —
// a typo there would silently suppress nothing — and filters them out.
func (p *pkg) checkPasses(passes []string, pos token.Position) []string {
	out := passes[:0]
	for _, name := range passes {
		if !knownPasses[name] {
			p.pending = append(p.pending, diag{
				pass: "directive",
				pos:  pos,
				msg:  fmt.Sprintf("unknown pass %q in iamlint directive", name),
			})
			continue
		}
		out = append(out, name)
	}
	return out
}

func splitPasses(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// funcFor resolves the called function (or method) of a call, through
// either a plain identifier or a selector.  Returns nil for calls to
// function values, built-ins, or type conversions.
func (p *pkg) funcFor(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := p.info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgPathOf returns the import path of a function's defining package,
// or "" for builtins.
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// returnsError reports whether any result of fn is the builtin error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}
