package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file builds the per-function summaries the lock and goroutine
// passes read: which locks a function acquires (and what was held at
// each acquisition), which functions it calls (and what was held at
// each call), what it still holds where it returns, which goroutines it
// spawns and which WaitGroups it Add/Done/Waits.  It is the one walk
// over a function body.
//
// The walk is path-sensitive: `if`, `switch`, `select` and loops fork
// the held-set and join (union) the states that fall out of them, and
// return, panic, os.Exit, log.Fatal* and branch statements end a path;
// a loop body is walked once.  A held lock carries its canonical name
// (what lockorder orders), its receiver text and mode (the instance
// lockcheck tracks) and whether a defer releases it: `defer
// mu.Unlock()` keeps the lock held until return.  Function literals
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

// summary holds everything the summary passes need to know
// about one function without re-reading its body.
type summary struct {
	acquires []lockAcq
	events   []sumEvent
	spawns   []spawnSite
	wgAdds   []wgRef
	wgDones  []wgRef
	wgWaits  []wgRef
	exits    []lockExit
	slips    []lockSlip

	// mayAcquire (computed in callgraph.go) holds every lock the
	// function may take, directly or through calls, and whether the
	// first path found to it crosses an interface call.
	mayAcquire map[string]bool
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

// lockID is one lock instance in one mode, as lockcheck tracks it: the
// receiver's source text ("db.mu", "h.f.mu") and whether it is the
// read side of an RWMutex.
type lockID struct {
	expr string
	read bool
}

// heldLock is one lock a path holds.
type heldLock struct {
	lockID
	name     string    // canonical name: what lockorder orders
	pos      token.Pos // the acquiring call
	deferred bool      // a defer releases it when the function returns
}

// lockExit is one place a path leaves the function: a return, or the
// end of the body when a path reaches it.
type lockExit struct {
	pos  token.Pos
	held []heldLock
}

// lockSlip is a release in the other mode from the held acquisition:
// an RLock released by Unlock, or a Lock by RUnlock.
type lockSlip struct {
	pos  token.Pos
	held heldLock
}

// path is the walk's state at one point of a function body: the locks
// held on the union of the paths that reach it.
type path struct {
	held []heldLock
	dead bool // no path reaches this point
}

func (s path) fork() path {
	return path{held: slices.Clone(s.held), dead: s.dead}
}

// join merges the paths of o into s.
func (s *path) join(o path) {
	switch {
	case o.dead:
	case s.dead:
		*s = o
	default:
		for _, h := range o.held {
			if s.find(h.lockID) < 0 {
				s.held = append(s.held, h)
			}
		}
	}
}

func (s path) find(id lockID) int {
	return slices.IndexFunc(s.held, func(h heldLock) bool { return h.lockID == id })
}

// sumBuilder walks one function body accumulating its summary.
type sumBuilder struct {
	p        *pkg
	fnName   string
	sum      *summary
	at       path
	deferred map[lockID]bool // released by a defer met so far in source order
	anon     *[]*funcNode    // literals found along the way
}

// buildSummary summarizes one function body.  anon collects function
// literals as separate anonymous nodes.
func buildSummary(p *pkg, fnName string, body *ast.BlockStmt, anon *[]*funcNode) *summary {
	b := &sumBuilder{p: p, fnName: fnName, sum: &summary{}, deferred: make(map[lockID]bool), anon: anon}
	b.walkStmts(body.List)
	if !b.at.dead {
		b.exit(body.Rbrace)
	}
	return b.sum
}

func (b *sumBuilder) heldNames() []string {
	names := make([]string, len(b.at.held))
	for i, h := range b.at.held {
		names[i] = h.name
	}
	return names
}

func (b *sumBuilder) exit(pos token.Pos) {
	b.sum.exits = append(b.sum.exits, lockExit{pos: pos, held: slices.Clone(b.at.held)})
	b.at.dead = true
}

// acquire records the acquisition with what is held (a lock already
// held gives lockorder its self-edge) and holds the lock.
func (b *sumBuilder) acquire(id lockID, name string, pos token.Pos) {
	b.sum.acquires = append(b.sum.acquires, lockAcq{name: name, pos: pos, held: b.heldNames()})
	if b.at.find(id) < 0 {
		b.at.held = append(b.at.held, heldLock{lockID: id, name: name, pos: pos, deferred: b.deferred[id]})
	}
}

// release handles an Unlock or RUnlock.  An immediate one drops the
// lock; a deferred one keeps it held until the function returns, where
// it no longer leaks.  With only the other mode held, and no defer
// already releasing this one, it records a slip against that one.
func (b *sumBuilder) release(id lockID, pos token.Pos, deferred bool) {
	i := b.at.find(id)
	if i < 0 && !b.deferred[id] {
		if i = b.at.find(lockID{id.expr, !id.read}); i >= 0 {
			b.sum.slips = append(b.sum.slips, lockSlip{pos: pos, held: b.at.held[i]})
		}
	}
	switch {
	case i < 0:
	case deferred:
		b.at.held[i].deferred = true
	default:
		b.at.held = slices.Delete(b.at.held, i, i+1)
	}
	if deferred {
		b.deferred[id] = true
	}
}

// deferRelease handles a call a defer runs; it reports whether the call
// is a release.
func (b *sumBuilder) deferRelease(call *ast.CallExpr, pos token.Pos) bool {
	id, _, acquires, ok := b.mutexCall(call)
	if !ok || acquires {
		return false
	}
	b.release(id, pos, true)
	return true
}

// walkStmts walks a statement list until its path ends; a statement
// after that is unreachable (goto is not modeled).
func (b *sumBuilder) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		if b.at.dead {
			return
		}
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
		orElse := b.at.fork()
		b.walkStmt(st.Body)
		then := b.at
		b.at = orElse
		if st.Else != nil {
			b.walkStmt(st.Else)
		}
		b.at.join(then)
	case *ast.ForStmt:
		if st.Init != nil {
			b.walkStmt(st.Init)
		}
		b.scanExpr(st.Cond)
		b.loop(st.Body, st.Post, st.Cond == nil && !hasBreak(st.Body))
	case *ast.RangeStmt:
		b.scanExpr(st.X)
		b.loop(st.Body, nil, false)
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.walkStmt(st.Init)
		}
		b.scanExpr(st.Tag)
		b.cases(st.Body, false)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.walkStmt(st.Init)
		}
		b.walkStmt(st.Assign)
		b.cases(st.Body, false)
	case *ast.SelectStmt:
		b.cases(st.Body, true)
	case *ast.LabeledStmt:
		b.walkStmt(st.Stmt)
	case *ast.GoStmt:
		b.spawn(st)
	case *ast.DeferStmt:
		b.deferCall(st)
	case *ast.ReturnStmt:
		b.scanNode(st)
		b.exit(st.Pos())
	case *ast.BranchStmt:
		// break, continue, goto and fallthrough end the path here; the
		// loop or switch they leave joins only its body's fall-through.
		b.at.dead = true
	default:
		// Leaf statements (expressions, assignments, sends,
		// declarations): classify every call in source order.
		b.scanNode(s)
		if es, ok := st.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && isTerminatorCall(call) {
				b.at.dead = true
			}
		}
	}
}

// loop walks a loop body once from the loop's entry state.  The loop is
// left with the entry's locks or the body's, or never when it is endless.
func (b *sumBuilder) loop(body *ast.BlockStmt, post ast.Stmt, endless bool) {
	entry := b.at.fork()
	b.walkStmt(body)
	b.at.join(entry)
	if post != nil {
		b.walkStmt(post)
	}
	if endless {
		b.at.dead = true
	}
}

// cases walks every clause of a switch or select from the entry state
// and joins the clauses that fall out.  A switch without a default can
// also match nothing; a select always runs a clause.
func (b *sumBuilder) cases(body *ast.BlockStmt, exhaustive bool) {
	entry := b.at
	out := path{dead: true}
	for _, clause := range body.List {
		b.at = entry.fork()
		switch cc := clause.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || cc.List == nil
			for _, e := range cc.List {
				b.scanExpr(e)
			}
			b.walkStmts(cc.Body)
		case *ast.CommClause:
			if cc.Comm != nil {
				b.walkStmt(cc.Comm)
			}
			b.walkStmts(cc.Body)
		}
		out.join(b.at)
	}
	if !exhaustive {
		out.join(entry)
	}
	b.at = out
}

// isTerminatorCall reports a call that never returns: panic, os.Exit,
// log.Fatal*.
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return (x.Name == "os" && fun.Sel.Name == "Exit") ||
				(x.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"))
		}
	}
	return false
}

// hasBreak reports whether a loop body can break out of its loop: by a
// break outside any nested loop, switch or select, or by a labeled
// break, which may name this loop.
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BranchStmt:
			found = found || s.Tok == token.BREAK
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(s, func(m ast.Node) bool {
				br, ok := m.(*ast.BranchStmt)
				found = found || ok && br.Tok == token.BREAK && br.Label != nil
				return !found
			})
			return false
		}
		return !found
	})
	return found
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

// deferCall handles defer statements.  A deferred release, directly or
// inside a deferred literal, marks the lock; other deferred calls are
// recorded like immediate ones.
func (b *sumBuilder) deferCall(st *ast.DeferStmt) {
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				b.deferRelease(call, st.Pos())
			}
			return true
		})
		b.liftLiteral(lit)
		for _, arg := range st.Call.Args {
			b.scanExpr(arg)
		}
		return
	}
	if !b.deferRelease(st.Call, st.Pos()) {
		b.scanNode(st)
	}
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

// mutexCall classifies a Lock, RLock, TryLock, TryRLock, Unlock or
// RUnlock call on a sync.Mutex or sync.RWMutex.
func (b *sumBuilder) mutexCall(call *ast.CallExpr) (id lockID, name string, acquires, ok bool) {
	recv, typ, method, ok := syncRecv(b.p, call)
	if !ok || (typ != "Mutex" && typ != "RWMutex") {
		return id, "", false, false
	}
	switch method {
	case "Lock", "TryLock":
		acquires = true
	case "RLock", "TryRLock":
		acquires, id.read = true, true
	case "Unlock":
	case "RUnlock":
		id.read = true
	default:
		return id, "", false, false
	}
	id.expr = types.ExprString(recv)
	return id, canonicalName(b.p, recv), acquires, true
}

func (b *sumBuilder) classifyCall(call *ast.CallExpr) {
	if id, name, acquires, ok := b.mutexCall(call); ok {
		if acquires {
			b.acquire(id, name, call.Pos())
		} else {
			b.release(id, call.Pos(), false)
		}
		return
	}
	if recv, typ, method, ok := syncRecv(b.p, call); ok {
		if typ == "WaitGroup" {
			ref := wgRef{name: canonicalName(b.p, recv), pos: call.Pos()}
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
	ev := sumEvent{pos: call.Pos(), held: b.heldNames(), callee: fn}
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
