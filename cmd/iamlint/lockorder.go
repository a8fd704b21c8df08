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
// Reports: every observed edge the declared order's transitive closure
// does not cover (one whose reverse it does cover completes a cycle, a
// potential deadlock), any acquisition while a declared leaf is held,
// any lock taken while it may already be held, and, once at its
// directive, a declared order that itself permits a cycle.

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
// rules over directive name spellings, lowercased.
func declaredClosure(rules []lockRule) map[[2]string]bool {
	closure := make(map[[2]string]bool)
	for _, r := range rules {
		if r.kind == "order" {
			closure[[2]string{strings.ToLower(r.a), strings.ToLower(r.b)}] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for ab := range closure {
			for bc := range closure {
				if ac := [2]string{ab[0], bc[1]}; ab[1] == bc[0] && !closure[ac] {
					closure[ac] = true
					changed = true
				}
			}
		}
	}
	return closure
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
				for lock, viaIface := range cn.sum.mayAcquire {
					for _, h := range ev.held {
						if h == lock && (ev.iface || viaIface) {
							// A self-edge reached only through interface
							// resolution is an over-approximation artifact
							// (e.g. a vfs wrapper delegating to its inner
							// FS, which "may" be itself): skip.
							continue
						}
						addEdge(lockEdge{src: h, dst: lock, pos: ev.pos, via: ev.callee})
					}
				}
			}
		}
	}
	return edges
}

func lockorder(pr *program, emit func(diag)) {
	rules := parseLockDecls(pr.pkgs, emit)
	closure := declaredClosure(rules)

	declared := func(src, dst string) bool {
		for pair := range closure {
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
	isLeaf := func(src string) bool {
		for _, r := range rules {
			if r.kind == "leaf" && lockMatches(r.a, src) {
				return true
			}
		}
		return false
	}
	viaSuffix := func(e lockEdge) string {
		if e.via == nil {
			return ""
		}
		return fmt.Sprintf(" (via call to %s)", fnLabel(e.via))
	}

	// A declared order that orders a lock before itself is reported
	// once, at its directive, whether or not code takes the locks.
	reported := make(map[token.Position]bool)
	for _, r := range rules {
		if r.kind == "order" && closure[[2]string{strings.ToLower(r.a), strings.ToLower(r.a)}] && !reported[r.pos] {
			reported[r.pos] = true
			emit(diag{
				pass: "lockorder",
				pos:  r.pos,
				msg:  fmt.Sprintf("declared lock order permits a cycle through %s and %s — fix the //iamlint:lockorder directives", r.a, r.b),
			})
		}
	}

	for _, e := range collectEdges(pr) {
		if internalExempt(e.src, e.dst) {
			continue
		}
		src, dst := displayLock(e.src), displayLock(e.dst)
		var msg string
		switch {
		case e.src == e.dst:
			msg = fmt.Sprintf("%s may be acquired while already held%s — recursive locking, self-deadlock", dst, viaSuffix(e))
		case !declared(e.src, e.dst) && declared(e.dst, e.src):
			msg = fmt.Sprintf("acquiring %s while holding %s%s completes a lock-order cycle — potential deadlock", dst, src, viaSuffix(e))
		case isLeaf(e.src):
			msg = fmt.Sprintf("%s is declared a leaf lock but %s is acquired while it is held%s", src, dst, viaSuffix(e))
		case !declared(e.src, e.dst):
			msg = fmt.Sprintf("acquiring %s while holding %s%s is not in the declared lock order; add \"//iamlint:lockorder %s < %s\" or restructure",
				dst, src, viaSuffix(e), src, dst)
		default:
			continue
		}
		emit(diag{pass: "lockorder", pos: pr.fset.Position(e.pos), msg: msg})
	}
}
