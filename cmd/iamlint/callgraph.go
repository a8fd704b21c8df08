package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// program is the interprocedural substrate shared by the lockorder
// and goexit passes: every declared function's summary, a
// type-resolved call graph (interface methods resolve to every
// implementation declared in the linted packages), and the fixpoint
// results the passes consume.
type program struct {
	pkgs  []*pkg
	fset  *token.FileSet
	nodes map[string]*funcNode // by funcKey
	anon  []*funcNode          // function literals, in discovery order
	order []*funcNode          // all nodes, deterministic order

	// byFile maps a filename to its package, so program-level passes
	// can honour per-package suppression directives.
	byFile map[string]*pkg

	// named is the universe of concrete named types used to resolve
	// interface-method calls.
	named []*types.Named

	resolveCache map[resolveKey][]*funcNode
	closures     map[string]map[string]bool // pkg path -> import closure (inclusive)
}

type resolveKey struct {
	iface  *types.Interface
	method string
	caller string // calling package path: resolution is import-scoped
}

// buildProgram summarizes every function of every loaded package and
// runs the fixpoints.
func buildProgram(pkgs []*pkg) *program {
	pr := &program{
		pkgs:         pkgs,
		nodes:        make(map[string]*funcNode),
		byFile:       make(map[string]*pkg),
		resolveCache: make(map[resolveKey][]*funcNode),
	}
	if len(pkgs) > 0 {
		pr.fset = pkgs[0].fset
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			pr.byFile[p.fset.Position(f.Pos()).Filename] = p
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{
					obj:   obj,
					pkg:   p,
					label: fnLabel(obj),
					pos:   fd.Pos(),
					sum:   buildSummary(p, fnLabel(obj), fd.Body, &pr.anon),
				}
				pr.nodes[funcKey(obj)] = node
				pr.order = append(pr.order, node)
			}
		}
		// Named-type universe for interface resolution: every concrete
		// named type declared in the linted packages.
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			pr.named = append(pr.named, named)
		}
	}
	pr.order = append(pr.order, pr.anon...)
	sort.Slice(pr.named, func(i, j int) bool {
		return pr.named[i].String() < pr.named[j].String()
	})
	pr.fixpointAcquire()
	return pr
}

// funcKey names a function identically in every type-checking world:
// a linted package is checked from source, and the packages that import
// it see its functions through export data, as different objects.  Keyed
// by package path, receiver and name, a static call into another linted
// package reaches the callee's summary.
func funcKey(fn *types.Func) string {
	return pkgPathOf(fn) + "." + fnLabel(fn.Origin())
}

// suppress consults the owning package's directives for a
// program-level diagnostic.
func (pr *program) suppress(pass string, pos token.Position) bool {
	if p, ok := pr.byFile[pos.Filename]; ok {
		return p.suppressed(pass, pos)
	}
	return false
}

// importClosure returns the set of package paths a package can see:
// itself plus everything it imports, transitively.  Interface calls
// resolve only to implementations from this set — a concrete type
// whose package the caller cannot even name does not flow into its
// interface values (standard class-hierarchy refinement; it is what
// keeps the two alternative engine backends, which never import each
// other, from fabricating cross-engine lock cycles).
func (pr *program) importClosure(p *pkg) map[string]bool {
	if pr.closures == nil {
		pr.closures = make(map[string]map[string]bool)
	}
	if c, ok := pr.closures[p.path]; ok {
		return c
	}
	closure := make(map[string]bool)
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if tp == nil || closure[tp.Path()] {
			return
		}
		closure[tp.Path()] = true
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	walk(p.tpkg)
	closure[p.path] = true // tpkg can be nil on a failed check; the package still sees itself
	pr.closures[p.path] = closure
	return closure
}

// callees resolves one recorded call event of node n to the
// summarized nodes it may reach.  Static calls resolve to at most one
// node; interface calls resolve to the matching method on every
// implementing type in the caller's import closure.
func (pr *program) callees(n *funcNode, ev sumEvent) []*funcNode {
	if !ev.iface {
		if cn, ok := pr.nodes[funcKey(ev.callee)]; ok {
			return []*funcNode{cn}
		}
		return nil
	}
	iface := ev.ifaceT
	if iface == nil {
		// Selector through an interface-typed expression but the
		// method object is concrete (embedded): treat as static.
		if cn, found := pr.nodes[funcKey(ev.callee)]; found {
			return []*funcNode{cn}
		}
		return nil
	}
	key := resolveKey{iface: iface, method: ev.callee.Name(), caller: n.pkg.path}
	if cached, found := pr.resolveCache[key]; found {
		return cached
	}
	visible := pr.importClosure(n.pkg)
	var out []*funcNode
	for _, named := range pr.named {
		if named.Obj().Pkg() == nil || !visible[named.Obj().Pkg().Path()] {
			continue
		}
		if !implementsIface(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), ev.callee.Name())
		m, isFunc := obj.(*types.Func)
		if !isFunc {
			continue
		}
		if cn, found := pr.nodes[funcKey(m)]; found {
			out = append(out, cn)
		}
	}
	pr.resolveCache[key] = out
	return out
}

// sigString renders a signature with fully-qualified type names and
// no receiver, so signatures can be compared across type-checking
// worlds (each linted package is checked from source, so its types
// are distinct objects from the export-data versions its dependents
// see — types.Identical, and hence types.Implements, fails across
// that boundary even though the types print identically).
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	unnamed := func(t *types.Tuple) *types.Tuple {
		if t == nil {
			return nil
		}
		vars := make([]*types.Var, t.Len())
		for i := 0; i < t.Len(); i++ {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return types.TypeString(bare, qual)
}

// implementsIface is a cross-world types.Implements: every interface
// method must exist on *named with a structurally identical
// signature.
func implementsIface(named *types.Named, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), im.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		msig, ok1 := m.Type().(*types.Signature)
		isig, ok2 := im.Type().(*types.Signature)
		if !ok1 || !ok2 || sigString(msig) != sigString(isig) {
			return false
		}
	}
	return true
}

// fixpointAcquire propagates may-acquire sets bottom-up until stable:
// a function may acquire every lock it locks directly plus everything
// any callee may acquire.
func (pr *program) fixpointAcquire() {
	for _, n := range pr.order {
		n.sum.mayAcquire = make(map[string]acqOrigin)
		for _, a := range n.sum.acquires {
			if _, ok := n.sum.mayAcquire[a.name]; !ok {
				n.sum.mayAcquire[a.name] = acqOrigin{pos: a.pos}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range pr.order {
			for _, ev := range n.sum.events {
				for _, cn := range pr.callees(n, ev) {
					for lock, origin := range cn.sum.mayAcquire {
						if _, ok := n.sum.mayAcquire[lock]; ok {
							continue
						}
						n.sum.mayAcquire[lock] = acqOrigin{
							pos:   origin.pos,
							via:   ev.callee,
							iface: ev.iface || origin.iface,
						}
						changed = true
					}
				}
			}
		}
	}
}

// reachable returns every node reachable through the call graph from
// the given roots (inclusive).
func (pr *program) reachable(roots []*funcNode) map[*funcNode]bool {
	seen := make(map[*funcNode]bool)
	work := append([]*funcNode(nil), roots...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, ev := range n.sum.events {
			for _, cn := range pr.callees(n, ev) {
				if !seen[cn] {
					work = append(work, cn)
				}
			}
		}
		for _, sp := range n.sum.spawns {
			if sp.callee != nil {
				if cn, ok := pr.nodes[funcKey(sp.callee)]; ok && !seen[cn] {
					work = append(work, cn)
				}
			}
		}
	}
	return seen
}

// analyzeProgram runs the two interprocedural passes.
func analyzeProgram(pr *program) []diag {
	var diags []diag
	emit := func(d diag) {
		if !pr.suppress(d.pass, d.pos) {
			diags = append(diags, d)
		}
	}
	lockorder(pr, emit)
	goexit(pr, emit)
	return diags
}
