package core

import (
	"errors"
	"fmt"
	"slices"

	"iamdb/internal/engine"
	"iamdb/internal/invariants"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/table"
	"iamdb/internal/tableset"
)

// batch is an in-memory run of records in internal-key order, the unit
// a flush partitions and delivers ("the records to be flushed are
// loaded into memory first", Sec. 4.2.1).
type batch struct {
	keys, vals [][]byte
	// staging is the pooled storage behind keys and vals, held by the
	// batch collect returned; the sub-batches cut from it share it and
	// carry nil.
	staging *kv.Gather
}

func (b *batch) len() int { return len(b.keys) }

func (b *batch) iter() iterator.Iterator {
	return iterator.NewSlice(kv.CompareInternal, b.keys, b.vals)
}

// span returns the user-key span of the batch, in storage of its own.
func (b *batch) span() kv.Range {
	if b.len() == 0 {
		return kv.Range{}
	}
	return kv.MakeRange(kv.UserKey(b.keys[0]), kv.UserKey(b.keys[b.len()-1]))
}

func (b *batch) slice(lo, hi int) *batch {
	return &batch{keys: b.keys[lo:hi], vals: b.vals[lo:hi]}
}

// release hands the batch's storage back once the flush or split that
// collected it has delivered every record; the batch and its sub-batches
// are invalid from then on.
func (b *batch) release() {
	if b.staging != nil {
		b.staging.Release()
		*b = batch{}
	}
}

// collect materializes an iterator into a batch.  Table iterators reuse
// their buffers, so each record is copied, once, into storage the batch
// holds until release.
func collect(it iterator.Iterator) (*batch, error) {
	g := kv.NewGather()
	for it.First(); it.Valid(); it.Next() {
		g.Add(it.Key(), it.Value())
	}
	if err := it.Err(); err != nil {
		g.Release()
		return nil, err
	}
	return &batch{keys: g.Keys, vals: g.Vals, staging: g}, nil
}

// Flush implements engine.Engine: it empties one immutable memtable
// (the in-memory L0 node) into the tree, running the full compaction
// cascade the paper's flush/split/combine rules demand.
func (t *Tree) Flush(it iterator.Iterator) error {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	st := t.rep.Begin(engine.StepFlush, engine.NoLevel)
	defer st.End()
	atBottom := t.treeEmptyLocked()
	b, err := collect(engine.DropObsolete(it, t.Horizon(), atBottom, t.cfg.OnDrop))
	if err != nil {
		return err
	}
	defer b.release()
	// Deferred: the flush is announced after its cascade, on error paths
	// too, with the bytes that left the memtable.
	defer st.Done(int64(batchBytes(b)), 0)
	if b.len() == 0 {
		return nil
	}
	if err := t.maintain(); err != nil {
		return err
	}
	t.retuneMK()
	if err := t.flushBatch(0, b.span(), b); err != nil {
		return err
	}
	if err := t.maintain(); err != nil {
		return err
	}
	if invariants.Enabled {
		// The full structural check after every flush cascade: disjoint
		// sorted ranges, data inside node ranges, level thresholds.
		if err := t.checkInvariantsLocked(); err != nil {
			invariants.Assertf(false, "tree invariants broken after flush: %v", err)
		}
	}
	return nil
}

func (t *Tree) treeEmptyLocked() bool {
	for i := 1; i <= t.n(); i++ {
		if len(t.Level(i)) > 0 {
			return false
		}
	}
	return true
}

// flushBatch delivers a batch from level src into level src+1, as the
// tail half of a flush (the batch is the parent's merged records).
func (t *Tree) flushBatch(src int, srcRange kv.Range, b *batch) error {
	dst := src + 1
	if dst > t.n() {
		return fmt.Errorf("core: flush below leaf level (src %d, n %d)", src, t.n())
	}
	// Resolve full internal children first (flush precondition 2).
	if dst < t.n() {
		for {
			resolved := true
			for _, kid := range t.children(src, srcRange) {
				if t.full(kid) {
					if err := t.flushNode(dst, kid, false); err != nil {
						return err
					}
					resolved = false
					break // structure changed; rescan
				}
			}
			if resolved {
				break
			}
		}
	}
	kids := t.children(src, srcRange)
	if len(kids) == 0 {
		// No children: the data becomes a new node in dst outright.
		return t.writeNodes(dst, b, t.cfg.NodeCapacity)
	}
	return t.deliver(dst, kids, b)
}

// flushNode performs the flush operation of Sec. 4.2.1 on an on-disk
// node: its records move to its children and the node empties.  With
// destroy (a combine, Sec. 4.2.3) the node is removed afterwards.
func (t *Tree) flushNode(i int, x *tableset.Table, destroy bool) error {
	st := t.rep.Begin(engine.StepFlushNode, i)
	defer st.End()
	st.In(x.ID())
	// Precondition 1: fewer than 2t children, else the split replaces
	// the flush.  When a combine picked the wide node, x no longer exists
	// either way: the caller's maintain loop picks a new candidate.
	if t.childCount(i, x.Range()) >= 2*t.cfg.Fanout {
		return t.splitNode(i, x)
	}
	// Move-down fast path: no children means no rewriting, only
	// metadata changes (the sequential-write property of Sec. 4.2.1).
	if t.childCount(i, x.Range()) == 0 {
		if i+1 > t.n() {
			return fmt.Errorf("core: move below leaf level from L%d", i)
		}
		mv := t.rep.Begin(engine.StepMove, i+1)
		mv.In(x.ID())
		mv.Out(x.ID()) // the file survives the move, re-homed a level down
		mv.End()
		return t.Apply(new(tableset.Change).Drop(i, x).Place(i+1, x))
	}
	st.Read(i, x.DataSize())
	b, err := t.loadNode(x)
	if err != nil {
		return err
	}
	defer b.release()
	defer st.Done(int64(batchBytes(b)), 0) // deferred as in Flush
	if err := t.flushBatch(i, x.Range(), b); err != nil {
		return err
	}
	if destroy {
		return t.Apply(new(tableset.Change).Drop(i, x))
	}
	return t.emptyNode(i, x)
}

// loadNode merges a node's sequences in memory, dropping obsolete
// versions (the node's own sequences shadow each other).
func (t *Tree) loadNode(x *tableset.Table) (*batch, error) {
	it := engine.DropObsolete(x.NewIter(), t.Horizon(), false, t.cfg.OnDrop)
	defer it.Close()
	return collect(it)
}

// emptyNode replaces a flushed node with a fresh empty one holding the
// same assigned range (shrunk toward balance with its neighbors —
// Sec. 4.2.1: "its key range usually remains unchanged but may be
// reduced after flushing").  The old node object stays intact for any
// concurrent readers still holding references to it.
func (t *Tree) emptyNode(i int, x *tableset.Table) error {
	fresh, _, err := t.Build(t.cfg.fileCapacity(), nil)
	if err != nil {
		return err
	}
	return t.Apply(new(tableset.Change).Drop(i, x).PlaceAs(i, fresh, t.shrunkRange(i, x)))
}

// shrunkRange returns the range the empty node replacing x (a node of
// level i, just flushed) is placed with: x's own, narrowed so its child
// count moves toward its smaller neighbor's by shedding children from the
// side that faces that neighbor.  The shed span becomes a gap the
// neighbor will absorb via out-of-range assignment in a later flush.
func (t *Tree) shrunkRange(i int, x *tableset.Table) kv.Range {
	kids := t.children(i, x.Range())
	lvl := t.Level(i)
	pos := slices.Index(lvl, x)
	if len(kids) < 2 || pos < 0 {
		return x.Range()
	}
	lo, hi := 0, len(kids) // retained child window [lo, hi)
	if pos > 0 {
		ln := t.childCount(i, lvl[pos-1].Range())
		if len(kids)-ln >= 2 {
			lo = (len(kids) - ln) / 2 // shed toward the left neighbor
		}
	}
	if pos < len(lvl)-1 {
		rn := t.childCount(i, lvl[pos+1].Range())
		if (hi-lo)-rn >= 2 {
			hi -= ((hi - lo) - rn) / 2 // shed toward the right neighbor
		}
	}
	if lo == 0 && hi == len(kids) || lo >= hi {
		return x.Range()
	}
	newRng := kv.Range{}
	for _, kid := range kids[lo:hi] {
		newRng = newRng.Union(kid.Range())
	}
	if newRng = clampRange(newRng, x.Range()); newRng.Empty() {
		return x.Range()
	}
	return newRng
}

// clampRange intersects r with bound.
func clampRange(r, bound kv.Range) kv.Range {
	if r.Empty() || bound.Empty() {
		return kv.Range{}
	}
	out := r
	if kv.CompareUser(out.Lo, bound.Lo) < 0 {
		out.Lo = bound.Lo
	}
	if kv.CompareUser(out.Hi, bound.Hi) > 0 {
		out.Hi = bound.Hi
	}
	if kv.CompareUser(out.Lo, out.Hi) > 0 {
		return kv.Range{}
	}
	return out
}

// deliver partitions a batch across the destination children and
// appends or merges each child's share per the policy (Sec. 5.1).
func (t *Tree) deliver(dst int, kids []*tableset.Table, b *batch) error {
	leaf := dst == t.n()
	// Grandchild counts decide gap assignment between internal kids.
	var gcCount []int
	if !leaf {
		gcCount = make([]int, len(kids))
		for j, kid := range kids {
			gcCount[j] = t.childCount(dst, kid.Range())
		}
	}

	// One pass over the sorted batch: compute each child's contiguous
	// share [start, end).
	type share struct{ start, end int }
	shares := make([]share, len(kids))
	for j := range shares {
		shares[j] = share{-1, -1}
	}
	p := 0
	assign := func(j, rec int) {
		if shares[j].start < 0 {
			shares[j].start = rec
		}
		shares[j].end = rec + 1
	}
	for rec := 0; rec < b.len(); rec++ {
		u := kv.UserKey(b.keys[rec])
		for p < len(kids) && kv.CompareUser(u, kids[p].Range().Hi) > 0 {
			p++
		}
		switch {
		case p < len(kids) && kids[p].Range().Contains(u):
			assign(p, rec)
		case p == 0:
			assign(0, rec) // before the first child: closest is kids[0]
		case p >= len(kids):
			assign(len(kids)-1, rec) // after the last child
		default:
			// In the gap between kids[p-1] and kids[p].
			left, right := p-1, p
			var j int
			if leaf {
				// Leaf: assign to the child with the closest range.
				if keyDistance(kids[left].Range().Hi, u) <= keyDistance(u, kids[right].Range().Lo) {
					j = left
				} else {
					j = right
				}
			} else {
				// Internal: prefer the child with fewer children to
				// alleviate range skew (Sec. 4.2.1).
				if gcCount[left] <= gcCount[right] {
					j = left
				} else {
					j = right
				}
			}
			// Keep assignment monotone: never go back before the last
			// child that received a record.
			if shares[right].start >= 0 {
				j = right
			}
			assign(j, rec)
		}
	}

	for j, s := range shares {
		if s.start < 0 {
			continue
		}
		if err := t.deliverToChild(dst, kids[j], b.slice(s.start, s.end)); err != nil {
			return err
		}
	}
	return nil
}

// keyDistance approximates how far apart two user keys are, for the
// leaf "closest range" rule: the magnitude of the difference of the
// first eight bytes beyond the common prefix, interpreted big-endian.
func keyDistance(a, b []byte) uint64 {
	if kv.CompareUser(a, b) > 0 {
		a, b = b, a
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return kv.Fence(b[i:]) - kv.Fence(a[i:])
}

// deliverToChild appends or merges one child's share.
func (t *Tree) deliverToChild(dst int, kid *tableset.Table, sub *batch) error {
	if t.shouldMerge(dst, kid) {
		return t.mergeChild(dst, kid, sub)
	}
	err := t.appendToChild(dst, kid, sub)
	if errors.Is(err, table.ErrNoSpace) {
		return t.mergeChild(dst, kid, sub)
	}
	return err
}

// appendToChild writes sub into kid's hole as one more sequence.  Its
// span ends on every path; only an append that went through carries an
// output file, bytes and a count, so a core.append span with an input
// alone is one that was abandoned: for lack of space (the merge that
// replaces it is its next sibling) or on an I/O error.
func (t *Tree) appendToChild(dst int, kid *tableset.Table, sub *batch) error {
	st := t.rep.Begin(engine.StepAppend, dst)
	defer st.End()
	st.In(kid.ID())
	it := sub.iter()
	it.First()
	res, err := kid.AppendFrom(it)
	if err != nil {
		return err
	}
	st.Out(kid.ID())
	st.Done(res.Bytes, int64(sub.len()))
	if newRng := kid.Range().Union(sub.span()); !newRng.Equal(kid.Range()) {
		// Widen the manifest range before syncing the data: a crash in
		// between leaves a wide range over old data (harmless), whereas
		// the reverse order could surface durable data outside the
		// node's recorded range.
		if err := t.Apply(new(tableset.Change).Drop(dst, kid).PlaceAs(dst, kid, newRng)); err != nil {
			return err
		}
	} else {
		t.Appended(dst, kid) // the re-placement above counts the sequence too
	}
	// The flush completes (and the WAL is retired) only once the
	// appended sequence is durable.
	return kid.Sync()
}

// mergeChild rewrites a child together with its incoming share into
// one or more fresh single-sequence nodes.  At the leaf level new
// nodes start at Cts = Ct/LeafInitFrac (Sec. 4.2.1, Fig. 4); at
// internal merging levels the merge yields a single node.
func (t *Tree) mergeChild(dst int, kid *tableset.Table, sub *batch) error {
	st := t.rep.Begin(engine.StepMerge, dst)
	defer st.End()
	st.In(kid.ID())
	atBottom := dst == t.n()
	chunk := t.cfg.NodeCapacity // internal merge: one (near-)full node
	if atBottom && kid.DataSize()+int64(batchBytes(sub)) > t.cfg.NodeCapacity {
		chunk = t.cfg.NodeCapacity / int64(t.cfg.LeafInitFrac)
	}
	st.Read(dst, kid.DataSize())
	merged := iterator.NewMerging(kv.CompareInternal, sub.iter(), kid.NewIter())
	filtered := engine.DropObsolete(merged, t.Horizon(), atBottom, t.cfg.OnDrop)
	defer filtered.Close()
	filtered.First()
	newNodes, bytes, err := t.BuildRuns(filtered, chunk, t.cfg.fileCapacity())
	if err != nil {
		return err
	}
	for _, nd := range newNodes {
		st.Out(nd.ID())
	}
	st.Done(bytes, 0)
	return t.Apply(new(tableset.Change).Drop(dst, kid).Place(dst, newNodes...))
}

func batchBytes(b *batch) int {
	n := 0
	for i := range b.keys {
		n += len(b.keys[i]) + len(b.vals[i])
	}
	return n
}

// writeNodes writes a batch as new single-sequence node(s) in level
// dst, chunked at limit bytes.
func (t *Tree) writeNodes(dst int, b *batch, limit int64) error {
	it := b.iter()
	it.First()
	nodes, bytes, err := t.BuildRuns(it, limit, t.cfg.fileCapacity())
	if err != nil {
		return err
	}
	t.rep.Wrote(dst, bytes)
	return t.Apply(new(tableset.Change).Place(dst, nodes...))
}

// splitNode divides a full node with at least 2t children into two
// nodes, each taking half the children (Sec. 4.2.2), eliminating the
// worst write case.
func (t *Tree) splitNode(i int, x *tableset.Table) error {
	kids := t.children(i, x.Range())
	if len(kids) < 2 {
		return fmt.Errorf("core: split of L%d node %d with %d children", i, x.ID(), len(kids))
	}
	st := t.rep.Begin(engine.StepSplit, i)
	defer st.End()
	st.In(x.ID())
	half := len(kids) / 2
	mid := kids[half].Range().Lo

	st.Read(i, x.DataSize())
	b, err := t.loadNode(x)
	if err != nil {
		return err
	}
	defer b.release()
	cut := 0
	for cut < b.len() && kv.CompareUser(kv.UserKey(b.keys[cut]), mid) < 0 {
		cut++
	}
	leftB, rightB := b.slice(0, cut), b.slice(cut, b.len())

	// "The initial key range of the new node is formed by the smallest
	// and largest keys of the records stored in itself and its
	// assigned children", clamped to x's old range to stay disjoint
	// from x's siblings.
	leftRng, rightRng := leftB.span(), rightB.span()
	for _, kid := range kids[:half] {
		leftRng = leftRng.Union(kid.Range())
	}
	for _, kid := range kids[half:] {
		rightRng = rightRng.Union(kid.Range())
	}
	leftRng = clampRange(leftRng, x.Range())
	rightRng = clampRange(rightRng, x.Range())

	var total int64
	var newNodes []*tableset.Table
	change := new(tableset.Change).Drop(i, x)
	for _, part := range []struct {
		b   *batch
		rng kv.Range
	}{{leftB, leftRng}, {rightB, rightRng}} {
		if part.rng.Empty() {
			continue
		}
		it := part.b.iter()
		it.First()
		nds, bytes, err := t.BuildRuns(it, t.cfg.NodeCapacity, t.cfg.fileCapacity())
		if err != nil {
			return err
		}
		total += bytes
		if len(nds) == 0 {
			// Empty half: materialize an empty node holding the range.
			nd, _, err := t.Build(t.cfg.fileCapacity(), nil)
			if err != nil {
				return err
			}
			nds = []*tableset.Table{nd}
		}
		// The first run is widened to the half's assigned range; any
		// further run keeps its data span.
		change.PlaceAs(i, nds[0], part.rng).Place(i, nds[1:]...)
		newNodes = append(newNodes, nds...)
	}
	for _, nd := range newNodes {
		st.Out(nd.ID())
	}
	st.Done(total, int64(len(newNodes)))
	return t.Apply(change)
}

// maintain restores the structural constraints before and after
// flushes (Sec. 4.2.3): grow the tree when the leaf level fills, and
// combine nodes of overfull internal levels.
func (t *Tree) maintain() error {
	for pass := 0; pass < 100000; pass++ {
		n := t.n()
		if len(t.Level(n)) >= t.threshold(n) {
			// The leaf level is full: it becomes internal and a new
			// empty leaf level opens beneath it.
			if err := t.Grow(); err != nil {
				return err
			}
			continue
		}
		fixed := true
		for i := t.n() - 1; i >= 1; i-- {
			// Quarantined nodes are excluded: they can never be combined
			// away, so counting them would wedge this loop.
			if t.ActiveCount(i) > t.threshold(i) {
				if err := t.combineOne(i); err != nil {
					return err
				}
				fixed = false
				break
			}
		}
		if fixed {
			return nil
		}
	}
	return errors.New("core: maintain did not converge")
}

// combineOne picks and combines one node of level i per the paper's
// candidate rule: among nodes with two adjacent siblings whose
// three-node range covers at most 3t children, take the smallest such
// cover (Tcn); this keeps the neighbors from splitting right away.
func (t *Tree) combineOne(i int) error {
	lvl := t.Level(i)
	if len(lvl) == 0 {
		return errors.New("core: combine on empty level")
	}
	best, bestTcn := -1, 1<<30
	for j := 1; j < len(lvl)-1; j++ {
		if lvl[j].Quarantined() {
			continue // combining would read the corrupt contents
		}
		own := t.childCount(i, lvl[j].Range())
		if own >= 2*t.cfg.Fanout {
			continue
		}
		cover := lvl[j-1].Range().Union(lvl[j].Range()).Union(lvl[j+1].Range())
		tcn := t.childCount(i, cover)
		if tcn <= 3*t.cfg.Fanout && tcn < bestTcn {
			best, bestTcn = j, tcn
		}
	}
	if best < 0 {
		// Fallback: the non-quarantined node with the fewest children.
		fewest := 1 << 30
		for j := range lvl {
			if lvl[j].Quarantined() {
				continue
			}
			own := t.childCount(i, lvl[j].Range())
			if own < fewest {
				best, fewest = j, own
			}
		}
	}
	if best < 0 {
		return nil // every node fenced; maintain's active count excuses them
	}
	st := t.rep.Begin(engine.StepCombine, i)
	defer st.End()
	st.In(lvl[best].ID())
	return t.flushNode(i, lvl[best], true)
}
