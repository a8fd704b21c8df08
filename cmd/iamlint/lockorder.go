package main

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// lockorder infers the program's mutex-acquisition graph — which
// locks may be taken while which others are held, propagated through
// the call graph — and checks it against the hierarchy declared by
// //iamlint:lockorder directives.
//
// Directive grammar (clauses separated by ";"):
//
//	A < B       B may be acquired while A is held (transitive:
//	            clauses chain on identical spelling of the middle name)
//	X leaf      nothing may be acquired while X is held
//	P internal  edges between two locks both matching P are exempt
//	            (layered same-shape wrappers, e.g. the vfs stack,
//	            where per-instance nesting is safe but the
//	            type-granular analysis cannot see instances)
//
// Names match canonical lock names ("pkg.Type.field" or "pkg.var")
// case-insensitively by suffix, so "db.mu" matches "iamdb.DB.mu"; a
// trailing ".*" is a prefix wildcard ("vfs.*" matches every lock in
// package vfs).
//
// Reports: any cycle in the acquisition graph (potential deadlock),
// any acquisition while a declared leaf is held, and — once at least
// one directive exists in the linted program — any observed edge not
// covered by the declared order's transitive closure.  With no
// directives at all only cycles are reported, so the pass is adoptable
// incrementally.

// lockRule is one parsed directive clause.
type lockRule struct {
	kind string // "order", "leaf", "internal"
	a, b string // order: a < b; leaf/internal: a only
	pos  token.Position
}

// lockEdge is one observed may-hold edge: dst was (or may be)
// acquired while src was held.
type lockEdge struct {
	src, dst string
	pos      token.Pos
	via      *types.Func // immediate callee for interprocedural edges
	iface    bool        // resolution crossed an interface method
}

func parseLockDecls(pkgs []*pkg, emit func(diag)) []lockRule {
	var rules []lockRule
	for _, p := range pkgs {
		for _, d := range p.lockDecls {
			for _, clause := range strings.Split(d.text, ";") {
				clause = strings.TrimSpace(clause)
				if clause == "" {
					continue
				}
				fields := strings.Fields(clause)
				switch {
				case len(fields) == 3 && fields[1] == "<":
					rules = append(rules, lockRule{kind: "order", a: fields[0], b: fields[2], pos: d.pos})
				case len(fields) == 2 && fields[1] == "leaf":
					rules = append(rules, lockRule{kind: "leaf", a: fields[0], pos: d.pos})
				case len(fields) == 2 && fields[1] == "internal":
					rules = append(rules, lockRule{kind: "internal", a: fields[0], pos: d.pos})
				default:
					emit(diag{
						pass: "lockorder",
						pos:  d.pos,
						msg:  fmt.Sprintf("malformed lockorder clause %q (expect \"A < B\", \"X leaf\", or \"P internal\")", clause),
					})
				}
			}
		}
	}
	return rules
}

// lockMatches reports whether a directive name matches a canonical
// lock name: case-insensitive, by suffix ("db.mu" ~ "iamdb.DB.mu"),
// with a trailing ".*" acting as a package/prefix wildcard.
func lockMatches(pattern, canon string) bool {
	c := strings.ToLower(displayLock(canon))
	p := strings.ToLower(pattern)
	if strings.HasSuffix(p, ".*") {
		return strings.HasPrefix(c, p[:len(p)-1])
	}
	return c == p || strings.HasSuffix(c, "."+p)
}

// declaredClosure computes the transitive closure of the "order"
// rules over directive name spellings.
func declaredClosure(rules []lockRule) [][2]string {
	succ := make(map[string]map[string]bool)
	add := func(a, b string) bool {
		la, lb := strings.ToLower(a), strings.ToLower(b)
		if succ[la] == nil {
			succ[la] = make(map[string]bool)
		}
		if succ[la][lb] {
			return false
		}
		succ[la][lb] = true
		return true
	}
	names := make(map[string]string) // lower -> original spelling
	for _, r := range rules {
		if r.kind != "order" {
			continue
		}
		add(r.a, r.b)
		names[strings.ToLower(r.a)] = r.a
		names[strings.ToLower(r.b)] = r.b
	}
	for changed := true; changed; {
		changed = false
		for a, bs := range succ {
			for b := range bs {
				for c := range succ[b] {
					if add(a, c) {
						changed = true
					}
				}
			}
		}
	}
	var out [][2]string
	for a, bs := range succ {
		for b := range bs {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

// collectEdges walks every function summary producing the observed
// acquisition edges, deduplicated by (src, dst) keeping the first
// (deterministic: nodes are visited in declaration order).
func collectEdges(pr *program) []lockEdge {
	seen := make(map[[2]string]bool)
	var edges []lockEdge
	addEdge := func(e lockEdge) {
		key := [2]string{e.src, e.dst}
		if seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, e)
	}
	for _, n := range pr.order {
		for _, a := range n.sum.acquires {
			for _, h := range a.held {
				addEdge(lockEdge{src: h, dst: a.name, pos: a.pos})
			}
		}
		for _, ev := range n.sum.events {
			if len(ev.held) == 0 {
				continue
			}
			for _, cn := range pr.callees(n, ev) {
				for lock, origin := range cn.sum.mayAcquire {
					viaIface := ev.iface || origin.iface
					for _, h := range ev.held {
						if h == lock && viaIface {
							// A self-edge reached only through interface
							// resolution is an over-approximation artifact
							// (e.g. a vfs wrapper delegating to its inner
							// FS, which "may" be itself): skip.
							continue
						}
						addEdge(lockEdge{src: h, dst: lock, pos: ev.pos, via: ev.callee, iface: viaIface})
					}
				}
			}
		}
	}
	return edges
}

// sccOf groups the edge graph's nodes into strongly connected
// components (Tarjan), returning a component id per lock name.
func sccOf(edges []lockEdge) map[string]int {
	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e.src] = append(adj[e.src], e.dst)
		if _, ok := adj[e.dst]; !ok {
			adj[e.dst] = nil
		}
	}
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, ncomp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for v := range adj {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comp
}

func lockorder(pr *program, emit func(diag)) {
	rules := parseLockDecls(pr.pkgs, emit)
	closure := declaredClosure(rules)

	declared := func(src, dst string) bool {
		for _, pair := range closure {
			if lockMatches(pair[0], src) && lockMatches(pair[1], dst) {
				return true
			}
		}
		return false
	}
	internalExempt := func(src, dst string) bool {
		for _, r := range rules {
			if r.kind == "internal" && lockMatches(r.a, src) && lockMatches(r.a, dst) {
				return true
			}
		}
		return false
	}
	leafRule := func(src string) *lockRule {
		for i, r := range rules {
			if r.kind == "leaf" && lockMatches(r.a, src) {
				return &rules[i]
			}
		}
		return nil
	}
	viaSuffix := func(e lockEdge) string {
		if e.via == nil {
			return ""
		}
		return fmt.Sprintf(" (via call to %s)", fnLabel(e.via))
	}
	position := func(p token.Pos) token.Position { return pr.fset.Position(p) }

	all := collectEdges(pr)
	var edges []lockEdge
	for _, e := range all {
		if internalExempt(e.src, e.dst) {
			continue
		}
		edges = append(edges, e)
	}

	comp := sccOf(edges)
	inCycle := func(e lockEdge) bool {
		if e.src == e.dst {
			return true
		}
		return comp[e.src] == comp[e.dst]
	}

	// Count members per component to tell real multi-lock cycles from
	// singleton components, and note which cycles contain an
	// undeclared edge: there the undeclared edges are the offenders
	// and the declared ones stay silent.
	size := make(map[int]int)
	for _, c := range comp {
		size[c]++
	}
	undeclaredIn := make(map[int]bool)
	for _, e := range edges {
		if e.src != e.dst && comp[e.src] == comp[e.dst] && size[comp[e.src]] > 1 && !declared(e.src, e.dst) {
			undeclaredIn[comp[e.src]] = true
		}
	}

	haveDecls := len(rules) > 0
	for _, e := range edges {
		src, dst := displayLock(e.src), displayLock(e.dst)
		switch {
		case e.src == e.dst:
			emit(diag{
				pass: "lockorder",
				pos:  position(e.pos),
				msg:  fmt.Sprintf("%s may be acquired while already held%s — recursive locking, self-deadlock", dst, viaSuffix(e)),
			})
		case inCycle(e) && size[comp[e.src]] > 1 && !declared(e.src, e.dst):
			emit(diag{
				pass: "lockorder",
				pos:  position(e.pos),
				msg:  fmt.Sprintf("acquiring %s while holding %s%s completes a lock-order cycle — potential deadlock", dst, src, viaSuffix(e)),
			})
		case inCycle(e) && size[comp[e.src]] > 1:
			if undeclaredIn[comp[e.src]] {
				// The cycle's undeclared edges were reported above; this
				// declared edge is consistent with the hierarchy.
				continue
			}
			// Every edge of this cycle is individually declared: the
			// declared hierarchy itself is contradictory.
			emit(diag{
				pass: "lockorder",
				pos:  position(e.pos),
				msg:  fmt.Sprintf("declared lock order permits a cycle through %s and %s — fix the //iamlint:lockorder directives", src, dst),
			})
		default:
			if lr := leafRule(e.src); lr != nil {
				emit(diag{
					pass: "lockorder",
					pos:  position(e.pos),
					msg:  fmt.Sprintf("%s is declared a leaf lock but %s is acquired while it is held%s", src, dst, viaSuffix(e)),
				})
			} else if haveDecls && !declared(e.src, e.dst) {
				emit(diag{
					pass: "lockorder",
					pos:  position(e.pos),
					msg: fmt.Sprintf("acquiring %s while holding %s%s is not in the declared lock order; add \"//iamlint:lockorder %s < %s\" or restructure",
						dst, src, viaSuffix(e), src, dst),
				})
			}
		}
	}
}
