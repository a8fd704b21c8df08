package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// This file builds the interprocedural substrate's per-function
// summaries: which locks a function acquires (and what was held at
// each acquisition), which functions it calls (and what was held at
// each call), which goroutines it spawns and which WaitGroups it
// Add/Done/Waits.
//
// The walk is source-order and deliberately simple: branches are
// visited in order with one mutable held-set, `defer mu.Unlock()`
// keeps the lock in the held-set for the rest of the function (the
// lock really is held until return — the opposite convention from
// lockcheck, which tracks release obligations), and function literals
// become anonymous summary nodes analyzed with an empty held-set (a
// literal usually runs on another goroutine or as a callback, where
// the enclosing frame's locks are not reliably held).

// sumEvent is one call to a resolvable function, in source order; callee
// effects are folded in by the passes via the call graph.
type sumEvent struct {
	pos    token.Pos
	callee *types.Func
	iface  bool // dispatches through an interface method
	// ifaceT is the full interface type at the call site.  It can be
	// wider than the method's declaring interface (vfs.File embeds
	// io.Closer, so walF.Close()'s method object belongs to io.Closer;
	// resolving against that one-method interface would match every
	// type with a Close method) — implementations are matched against
	// this type, not the declaring one.
	ifaceT *types.Interface
	held   []string // canonical locks held at this point
}

// lockAcq is one direct lock acquisition.
type lockAcq struct {
	name string // canonical lock name
	pos  token.Pos
	held []string // locks held when this one was taken
}

// wgRef is one WaitGroup Add/Done/Wait site.
type wgRef struct {
	name string // canonical WaitGroup name
	pos  token.Pos
}

// spawnSite is one `go` statement.
type spawnSite struct {
	pos    token.Pos
	callee *types.Func // static target for `go x.f()`; nil for literals
	lit    *ast.FuncLit
}

// summary holds everything the interprocedural passes need to know
// about one function without re-reading its body.
type summary struct {
	acquires []lockAcq
	events   []sumEvent
	spawns   []spawnSite
	wgAdds   []wgRef
	wgDones  []wgRef
	wgWaits  []wgRef

	// Fixpoint results (computed in callgraph.go):
	// mayAcquire maps canonical lock -> how it can be reached from
	// this function (directly or through calls).
	mayAcquire map[string]acqOrigin
}

// acqOrigin records how a lock became reachable from a function.
type acqOrigin struct {
	pos   token.Pos   // example acquisition position
	via   *types.Func // first callee on the path, nil if acquired directly
	iface bool        // some hop was an interface resolution
}

// funcNode is one analyzed function, method, or function literal.
type funcNode struct {
	obj   *types.Func // nil for literals
	pkg   *pkg
	label string // human-readable, e.g. "(*Tree).SetHorizon"
	pos   token.Pos
	sum   *summary
}

// fnLabel renders a types.Func as it appears in diagnostics.
func fnLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return "(" + ptr + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Name()
}

// pkgName returns the package's declared name (not its import path).
func (p *pkg) name() string {
	if len(p.files) > 0 {
		return p.files[0].Name.Name
	}
	return p.path
}

// canonicalName names a lock/WaitGroup expression so the same field
// reached through different receivers aggregates: "pkg.Type.field"
// for struct fields, "pkg.var" for package-level variables, and
// "var@file:line" (declaration site) for locals — the same local seen
// from its enclosing function and from a literal it spawns must
// canonicalize identically.
func canonicalName(p *pkg, x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.info.Selections[e]; ok {
			// A field promoted through embedding belongs to the struct
			// that declares it: t.Mu on a core.Tree embedding
			// *tableset.Set is tableset.Set.Mu, one lock whoever embeds it.
			recv := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				recv = derefStruct(recv).Field(i).Type()
			}
			if ptr, isPtr := recv.(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
		if obj, ok := p.info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + e.Sel.Name
		}
	case *ast.Ident:
		if obj, ok := p.info.Uses[e].(*types.Var); ok {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + e.Name
			}
			dp := p.fset.Position(obj.Pos())
			return e.Name + "@" + filepath.Base(dp.Filename) + ":" + strconv.Itoa(dp.Line)
		}
	}
	return p.name() + "." + types.ExprString(x)
}

// derefStruct returns the struct underlying t or *t; the type checker
// guarantees one for every hop of a field selection's embedding path.
func derefStruct(t types.Type) *types.Struct {
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	return t.Underlying().(*types.Struct)
}

// displayLock strips the declaration-site tag from a local's
// canonical name for diagnostics.
func displayLock(canon string) string {
	if i := strings.IndexByte(canon, '@'); i >= 0 {
		return canon[:i]
	}
	return canon
}

// syncRecv classifies a zero-arg method call on a type from package
// sync, returning the receiver expression, the receiver type name
// ("Mutex", "RWMutex", "WaitGroup", "Cond", ...) and the method name.
func syncRecv(p *pkg, call *ast.CallExpr) (recv ast.Expr, typ, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	fn := p.funcFor(call)
	if fn == nil || pkgPathOf(fn) != "sync" {
		return nil, "", "", false
	}
	named := receiverNamed(p, call)
	if named == nil {
		return nil, "", "", false
	}
	return sel.X, named.Obj().Name(), fn.Name(), true
}

// sumBuilder walks one function body accumulating its summary.
type sumBuilder struct {
	p      *pkg
	fnName string
	sum    *summary
	held   []string
	anon   *[]*funcNode // literals found along the way
}

// buildSummary summarizes one function body.  anon collects function
// literals as separate anonymous nodes.
func buildSummary(p *pkg, fnName string, body *ast.BlockStmt, anon *[]*funcNode) *summary {
	b := &sumBuilder{p: p, fnName: fnName, sum: &summary{}, anon: anon}
	b.walkStmts(body.List)
	return b.sum
}

func (b *sumBuilder) heldCopy() []string {
	return append([]string(nil), b.held...)
}

func (b *sumBuilder) acquire(name string, pos token.Pos) {
	for _, h := range b.held {
		if h == name {
			// Recursive acquisition of a held lock: record the
			// self-edge (lockorder reports it) but do not grow the set.
			b.sum.acquires = append(b.sum.acquires, lockAcq{name: name, pos: pos, held: b.heldCopy()})
			return
		}
	}
	b.sum.acquires = append(b.sum.acquires, lockAcq{name: name, pos: pos, held: b.heldCopy()})
	b.held = append(b.held, name)
}

func (b *sumBuilder) release(name string) {
	for i, h := range b.held {
		if h == name {
			b.held = append(b.held[:i], b.held[i+1:]...)
			return
		}
	}
}

func (b *sumBuilder) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		b.walkStmt(s)
	}
}

func (b *sumBuilder) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.walkStmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			b.walkStmt(st.Init)
		}
		b.scanExpr(st.Cond)
		b.walkStmt(st.Body)
		if st.Else != nil {
			b.walkStmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			b.walkStmt(st.Init)
		}
		if st.Cond != nil {
			b.scanExpr(st.Cond)
		}
		b.walkStmt(st.Body)
		if st.Post != nil {
			b.walkStmt(st.Post)
		}
	case *ast.RangeStmt:
		b.scanExpr(st.X)
		b.walkStmt(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.walkStmt(st.Init)
		}
		if st.Tag != nil {
			b.scanExpr(st.Tag)
		}
		b.walkStmt(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.walkStmt(st.Init)
		}
		b.walkStmt(st.Body)
	case *ast.SelectStmt:
		b.walkStmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			b.scanExpr(e)
		}
		b.walkStmts(st.Body)
	case *ast.CommClause:
		if st.Comm != nil {
			b.walkStmt(st.Comm)
		}
		b.walkStmts(st.Body)
	case *ast.LabeledStmt:
		b.walkStmt(st.Stmt)
	case *ast.GoStmt:
		b.spawn(st)
	case *ast.DeferStmt:
		b.deferCall(st)
	default:
		// Leaf statements (expressions, assignments, returns, sends,
		// declarations): classify every call in source order.
		b.scanNode(s)
	}
}

// spawn records a `go` statement.  A spawned literal is analyzed as
// its own anonymous node with an empty held-set.
func (b *sumBuilder) spawn(st *ast.GoStmt) {
	sp := spawnSite{pos: st.Pos()}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		sp.lit = lit
		b.liftLiteral(lit)
	} else {
		sp.callee = b.p.funcFor(st.Call)
	}
	for _, arg := range st.Call.Args {
		b.scanExpr(arg)
	}
	b.sum.spawns = append(b.sum.spawns, sp)
}

// deferCall handles defer statements.  A deferred Unlock keeps the
// lock held for the rest of the walk (it releases at return); other
// deferred calls are recorded like immediate ones.
func (b *sumBuilder) deferCall(st *ast.DeferStmt) {
	if recv, typ, method, ok := syncRecv(b.p, st.Call); ok &&
		(typ == "Mutex" || typ == "RWMutex") &&
		(method == "Unlock" || method == "RUnlock") {
		_ = recv // held until return: deliberately not released here
		return
	}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		b.liftLiteral(lit)
		for _, arg := range st.Call.Args {
			b.scanExpr(arg)
		}
		return
	}
	b.scanNode(st)
}

// liftLiteral registers a function literal as an anonymous node.
func (b *sumBuilder) liftLiteral(lit *ast.FuncLit) {
	if b.anon == nil || lit.Body == nil {
		return
	}
	sum := buildSummary(b.p, b.fnName+".func", lit.Body, b.anon)
	*b.anon = append(*b.anon, &funcNode{
		pkg:   b.p,
		label: "function literal in " + b.fnName,
		pos:   lit.Pos(),
		sum:   sum,
	})
}

func (b *sumBuilder) scanExpr(e ast.Expr) {
	if e != nil {
		b.scanNode(e)
	}
}

// scanNode visits every call below n in source order, skipping
// function-literal bodies (those become anonymous nodes).
func (b *sumBuilder) scanNode(n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch v := c.(type) {
		case *ast.FuncLit:
			b.liftLiteral(v)
			return false
		case *ast.CallExpr:
			// Visit arguments (inner calls) before classifying the
			// outer call, matching evaluation order closely enough.
			for _, arg := range v.Args {
				b.scanNode(arg)
			}
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
				b.scanNode(sel.X)
			}
			b.classifyCall(v)
			return false
		}
		return true
	})
}

func (b *sumBuilder) classifyCall(call *ast.CallExpr) {
	if recv, typ, method, ok := syncRecv(b.p, call); ok {
		name := canonicalName(b.p, recv)
		switch {
		case typ == "Mutex" || typ == "RWMutex":
			switch method {
			case "Lock", "RLock":
				b.acquire(name, call.Pos())
			case "Unlock", "RUnlock":
				b.release(name)
			case "TryLock", "TryRLock":
				b.acquire(name, call.Pos())
			}
		case typ == "WaitGroup":
			ref := wgRef{name: name, pos: call.Pos()}
			switch method {
			case "Add":
				b.sum.wgAdds = append(b.sum.wgAdds, ref)
			case "Done":
				b.sum.wgDones = append(b.sum.wgDones, ref)
			case "Wait":
				b.sum.wgWaits = append(b.sum.wgWaits, ref)
			}
		}
		return
	}

	fn := b.p.funcFor(call)
	if fn == nil {
		return // dynamic call (func value, conversion, builtin)
	}
	ev := sumEvent{pos: call.Pos(), held: b.heldCopy(), callee: fn}
	ev.iface, ev.ifaceT = ifaceCallType(b.p, call, fn)
	b.sum.events = append(b.sum.events, ev)
}

// ifaceCallType reports whether a call dispatches through an
// interface method, and if so the full interface type at the call
// site (the selection's receiver type when it is an interface — wider
// than the method's declaring interface for embedded methods).
func ifaceCallType(p *pkg, call *ast.CallExpr, fn *types.Func) (bool, *types.Interface) {
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if selection, found := p.info.Selections[sel]; found {
			recv := selection.Recv()
			if ptr, isPtr := recv.(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			if itf, isIface := recv.Underlying().(*types.Interface); isIface {
				return true, itf
			}
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false, nil
	}
	if itf, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
		return true, itf
	}
	return false, nil
}
