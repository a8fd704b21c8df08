package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// atomicpub guards the lock-free publication protocol the memtable and
// the DB's read snapshot rely on: a struct handed to readers through an
// atomic.Pointer[T] is immutable after the Store that publishes it.  Every plain (non-atomic) field must be fully written
// *before* publication; a later write races with readers that reached
// the value through an atomic load.
//
// The pass collects every named type T that appears as the pointee of
// an atomic.Pointer[T] field (directly or inside an array/slice) and
// flags assignments and ++/-- on fields of such types, and on elements of
// their slice and array fields (v.levels[i] = ..., v.levels[i][j] = ...:
// the table set's version is its level slices, a table's committed
// state its sequence list), unless the value
// being written is provably fresh within the function: built there by a
// &T{...} composite literal, a new(T), or a same-package new*/New*
// constructor, and therefore not yet published.  Anything reached
// through another expression — an atomic Load(), a struct field, a
// parameter — cannot be proven unpublished and is reported.
func atomicpub(p *pkg, emit func(diag)) {
	pub := publishedTypes(p)
	if len(pub) == 0 {
		return
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPublishedWrites(p, emit, fn, pub)
		}
	}
}

// publishedTypes returns the named types used as atomic.Pointer
// pointees anywhere in the package's struct fields.
func publishedTypes(p *pkg) map[*types.TypeName]bool {
	pub := make(map[*types.TypeName]bool)
	for _, obj := range p.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			collectPointees(st.Field(i).Type(), pub)
		}
	}
	return pub
}

// collectPointees records the type argument of every atomic.Pointer
// instantiation reachable through arrays and slices of t.
func collectPointees(t types.Type, pub map[*types.TypeName]bool) {
	switch tt := t.(type) {
	case *types.Array:
		collectPointees(tt.Elem(), pub)
	case *types.Slice:
		collectPointees(tt.Elem(), pub)
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
			return
		}
		args := tt.TypeArgs()
		if args == nil || args.Len() != 1 {
			return
		}
		if n, ok := derefType(args.At(0)).(*types.Named); ok {
			pub[n.Obj()] = true
		}
	}
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// checkPublishedWrites flags field writes on published types within one
// function, allowing writes through locals that hold a fresh value.
func checkPublishedWrites(p *pkg, emit func(diag), fn *ast.FuncDecl, pub map[*types.TypeName]bool) {
	fresh := freshLocals(p, fn)
	check := func(lhs ast.Expr, verb string) {
		lhs = ast.Unparen(lhs)
		for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = lhs.(*ast.IndexExpr) {
			lhs = ast.Unparen(ix.X) // an element of a field is the field's
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := p.info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return
		}
		named, ok := derefType(selection.Recv()).(*types.Named)
		if !ok || !pub[named.Obj()] {
			return
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && fresh[identObj(p, id)] {
			return
		}
		emit(diag{
			pass: "atomicpub",
			pos:  p.fset.Position(sel.Pos()),
			msg: fmt.Sprintf("%s field %s.%s: %s is published via atomic.Pointer and shared with lock-free readers; write fields only on a fresh value before publication, or make the field atomic",
				verb, named.Obj().Name(), selection.Obj().Name(), named.Obj().Name()),
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				check(lhs, "assignment to")
			}
		case *ast.IncDecStmt:
			check(s.X, "increment of")
		}
		return true
	})
}

// freshLocals returns the local variables of fn assigned a provably
// unpublished value somewhere in the function: a composite literal (or
// its address), a new(T), or the result of a same-package new*/New*
// constructor.  The analysis is not flow-sensitive — a lint, not a
// proof — but a variable that only ever holds fresh values is safe to
// initialize at any point before its owner publishes it.
func freshLocals(p *pkg, fn *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	mark := func(lhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := identObj(p, id); obj != nil {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, rhs := range s.Rhs {
					if freshExpr(p, rhs) {
						mark(s.Lhs[i])
					}
				}
			} else if len(s.Rhs) == 1 && freshExpr(p, s.Rhs[0]) {
				for _, lhs := range s.Lhs {
					mark(lhs)
				}
			}
		case *ast.ValueSpec:
			for i, v := range s.Values {
				if i < len(s.Names) && freshExpr(p, v) {
					if obj := p.info.Defs[s.Names[i]]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

// freshExpr reports whether e builds a value that cannot have been
// published yet: a (pointer to a) composite literal, new(T), or a call
// to a same-package constructor whose name starts with new/New.
func freshExpr(p *pkg, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			_, ok := ast.Unparen(v.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok &&
			p.info.Uses[id] == types.Universe.Lookup("new") {
			return true
		}
		fn := p.funcFor(v)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		name := fn.Name()
		return fn.Pkg().Path() == p.path &&
			(strings.HasPrefix(name, "new") || strings.HasPrefix(name, "New"))
	}
	return false
}

// identObj resolves an identifier to its object whether the ident
// defines (:=) or uses (=) the variable.
func identObj(p *pkg, id *ast.Ident) types.Object {
	if obj := p.info.Defs[id]; obj != nil {
		return obj
	}
	return p.info.Uses[id]
}
