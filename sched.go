package iamdb

import (
	"context"
	"runtime/pprof"
	"sync"
)

// stepKind is one kind of a store's background work, in priority order:
// a worker takes the first kind that is ready and unclaimed.
type stepKind int

const (
	stepDrain   stepKind = iota // flush the oldest immutable memtable (store.drainStep)
	stepCompact                 // one engine WorkStep (store.workStep)
	stepGC                      // collect one value-log segment (valueStore.gcOnce)
	numSteps
)

// stepOps names each kind in a BackgroundError.
var stepOps = [numSteps]string{"flush", "compact", "gc"}

// sched runs one store's background work (DESIGN.md, "Background work").
// Each kind of step has a ready flag, set by the points that make its
// work (wake), and a claim, so no kind runs twice at once.  Workers take
// ready steps; inline there are none, and the writer whose commit rotated
// the memtable runs them (afterCommit).  Every step runs through run.
type sched struct {
	st      *store
	steps   [numSteps]func() (bool, error) // nil: the store has no such work
	workers int                            // 0: inline

	mu      sync.Mutex // leaf: guards the flags below
	cond    sync.Cond  // on mu: a step became ready or free, or the store stopped
	ready   [numSteps]bool
	claimed [numSteps]bool
	stopped bool
}

func newSched(st *store) *sched {
	s := &sched{st: st, steps: [numSteps]func() (bool, error){st.drainStep, st.workStep, nil}}
	kinds := 2
	if st.vs != nil {
		s.steps[stepGC] = st.vs.gcOnce
		kinds++
	}
	if !st.opt.InlineBackground {
		// A claim lets one worker hold each kind of step, so a worker
		// beyond one per kind would only ever wait.
		s.workers = min(st.opt.CompactionThreads+1, kinds)
	}
	s.cond.L = &s.mu
	s.ready[stepCompact] = true // recovery may have left the engine work
	return s
}

// start launches the workers, which store.close joins through st.wg.
func (s *sched) start() {
	for range s.workers {
		s.st.wg.Add(1)
		go func() {
			defer s.st.wg.Done()
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
				pprof.Labels("iamdb", "bg-worker")))
			s.runReady(stepDrain, stepGC, true)
		}()
	}
}

// runReady runs the ready, unclaimed steps of kinds from..to, highest
// priority first, until none is left, or for a worker (wait) until stop.
// No lock is held while a step runs, so a step that panics unwinds with
// its own message.
func (s *sched) runReady(from, to stepKind, wait bool) {
	for {
		k, ok := s.claim(from, to, wait)
		if !ok {
			return
		}
		s.run(k)
	}
}

// claim takes the first ready, unclaimed step of kinds from..to, waiting
// for one if wait; ok is false when there is none to take or the store
// stopped.
func (s *sched) claim(from, to stepKind, wait bool) (k stepKind, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped {
		for k = from; k <= to; k++ {
			if s.ready[k] && !s.claimed[k] {
				s.ready[k], s.claimed[k] = false, true
				return k, true
			}
		}
		if !wait {
			break
		}
		s.cond.Wait()
	}
	return 0, false
}

// wake marks kind k ready.  Safe from any goroutine and under any lock:
// the engine's drop observer calls it with the table set locked.
func (s *sched) wake(k stepKind) {
	if s.steps[k] == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ready[k] {
		s.ready[k] = true
		s.cond.Broadcast()
	}
}

// run makes one attempt at step k, which the caller has claimed.  A
// failure goes through noteBgError and stays ready unless the backoff
// gave up; a success that did work heals and stays ready, for more.
func (s *sched) run(k stepKind) {
	again, err := s.steps[k]()
	if err != nil {
		again = s.st.noteBgError(stepOps[k], err)
	} else if again {
		s.st.noteBgSuccess()
	}
	s.mu.Lock()
	s.claimed[k] = false
	s.ready[k] = s.ready[k] || again
	s.mu.Unlock()
	s.cond.Broadcast()
}

// afterCommit is the inline writer's turn, after it ended the allocation
// whose commit rotated the memtable, so the horizon covers that commit.
// Drain and compaction run under commitMu, collections after it, since a
// rewrite commits through DB.write; a rotation in one finds GC claimed.
func (s *sched) afterCommit() {
	if s.workers > 0 {
		return
	}
	s.st.commitMu.Lock()
	s.runReady(stepDrain, stepCompact, false)
	s.st.commitMu.Unlock()
	s.runReady(stepGC, stepGC, false)
}

// drainOnCaller is the rule for a caller holding commitMu that needs
// room in the immutable queue, or the queue empty: it drains the oldest
// memtable, ready or not, unless a worker holds the claim, and reports
// which (the caller then waits on st.cond).  Inline, the steps the drain
// made ready follow, the rest of the queue included.
func (s *sched) drainOnCaller() bool {
	s.mu.Lock()
	own := !s.claimed[stepDrain]
	if own {
		s.ready[stepDrain], s.claimed[stepDrain] = false, true
	}
	s.mu.Unlock()
	if own {
		s.run(stepDrain)
	}
	if s.workers == 0 {
		s.runReady(stepDrain, stepCompact, false)
	}
	return own
}

// stop ends the workers' loops; store.close then waits for them.
func (s *sched) stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
