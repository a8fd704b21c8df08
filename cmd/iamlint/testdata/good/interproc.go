// Clean counterparts for the interprocedural passes: nested locks in
// the declared order, a WaitGroup-disciplined worker, and suppressions
// that work inside function literals.
//
//iamlint:lockorder outer.mu < inner.mu
package good

import (
	"sync"

	"iamdb/internal/vfs"
)

type outer struct{ mu sync.Mutex }
type inner struct{ mu sync.Mutex }

// nested takes the locks in the declared direction.
func (o *outer) nested(i *inner) {
	o.mu.Lock()
	i.mu.Lock()
	i.mu.Unlock()
	o.mu.Unlock()
}

// wrapper embeds inner; its promoted mu is still inner.mu, so the
// declared order above covers a lock taken through the embedding type.
type wrapper struct{ *inner }

func (o *outer) nestedPromoted(w *wrapper) {
	o.mu.Lock()
	w.mu.Lock()
	w.mu.Unlock()
	o.mu.Unlock()
}

// joined is the WaitGroup discipline goexit requires: Add before the
// spawn, Done in the body, Wait reachable from Close.
type joined struct {
	wg sync.WaitGroup
}

func (j *joined) Start() {
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
	}()
}

func (j *joined) Close() {
	j.wg.Wait()
}

// inLiteral proves suppression directives work inside function-literal
// bodies, with a multi-pass list.
func inLiteral(fs vfs.FS, name string) {
	f := func() {
		fs.Remove(name) //iamlint:ignore ioerr,alias
	}
	f()
}
