package main

import (
	"fmt"
)

// goexit checks that every `go` statement has a provable join: the
// spawned body must Done a sync.WaitGroup that was Add'ed before the
// spawn in the spawning function, and a Wait on that same WaitGroup
// must exist either in the spawning function itself or in a function
// reachable from a shutdown root (a Close/Shutdown/Stop method or
// main).  Workers outside this discipline leak past Close — exactly
// the dead-worker bugs the crash harness caught dynamically.
//
// Channel-based quiesce protocols are not modeled; a goroutine joined
// that way takes an //iamlint:ignore goexit on the `go` statement.

// goexitRoots are the function names treated as shutdown roots.
var goexitRoots = map[string]bool{
	"main":     true,
	"Close":    true,
	"Shutdown": true,
	"Stop":     true,
}

func goexit(pr *program, emit func(diag)) {
	var roots []*funcNode
	for _, n := range pr.order {
		if n.obj != nil && goexitRoots[n.obj.Name()] {
			roots = append(roots, n)
		}
	}
	fromRoots := pr.reachable(roots)

	// waiters[wg] lists the nodes that Wait on canonical WaitGroup wg.
	waiters := make(map[string][]*funcNode)
	for _, n := range pr.order {
		for _, w := range n.sum.wgWaits {
			waiters[w.name] = append(waiters[w.name], n)
		}
	}

	for _, n := range pr.order {
		for _, sp := range n.sum.spawns {
			// The WaitGroups the spawned body Dones.
			var dones []string
			switch {
			case sp.lit != nil:
				// The literal was lifted as the anonymous node right
				// after this function in discovery order; find it by
				// position.
				for _, an := range pr.anon {
					if an.pos == sp.lit.Pos() {
						for _, d := range an.sum.wgDones {
							dones = append(dones, d.name)
						}
						break
					}
				}
			case sp.callee != nil:
				if cn, ok := pr.nodes[funcKey(sp.callee)]; ok {
					for _, d := range cn.sum.wgDones {
						dones = append(dones, d.name)
					}
				}
			}

			joined := false
			for _, wg := range dones {
				// Add must precede the spawn in the spawning function.
				addBefore := false
				for _, a := range n.sum.wgAdds {
					if a.name == wg && a.pos < sp.pos {
						addBefore = true
						break
					}
				}
				if !addBefore {
					continue
				}
				// Wait in the spawner itself, or reachable from a root.
				for _, wn := range waiters[wg] {
					if wn == n || fromRoots[wn] {
						joined = true
						break
					}
				}
				if joined {
					break
				}
			}
			if joined {
				continue
			}
			msg := "go statement has no provable join: no WaitGroup Add-before-spawn / Done-in-body / Wait reachable from Close — the goroutine can outlive Close"
			if len(dones) > 0 {
				msg = fmt.Sprintf("go statement joins WaitGroup %s but no matching Add before the spawn plus Wait reachable from Close was found", displayLock(dones[0]))
			}
			emit(diag{pass: "goexit", pos: pr.fset.Position(sp.pos), msg: msg})
		}
	}
}
