package iterator

// ConcatSource hands a Concat its children and owns their lifetimes: it
// may open a child per Open and close the one it replaces, or hand out
// children opened beforehand.  The type that embeds the Concat provides
// Close, which closes whatever the source still holds open.
type ConcatSource interface {
	// Open returns child i, 0 <= i < n, for the Concat to position.
	Open(i int) ReverseIterator
	// Find names the child where a Seek (backward false) or a
	// SeekForPrev (backward true) of target starts; -1 or n names none.
	Find(target []byte, backward bool) int
}

// Concat chains n children whose key ranges are disjoint and ascending
// into one stream, in both directions: concatenation preserves order, so
// no heap is needed, and a scan only pays for the children it reaches.
// An exhausted child hands over to the next one forward or the previous
// one backward; the first child error ends the stream.  Next and Prev
// call the current child directly: the source is asked only when the
// stream is positioned or crosses a child.
type Concat struct {
	src ConcatSource
	n   int
	i   int             // index of cur
	cur ReverseIterator // nil when exhausted or failed
	err error           // the first child error; the stream stays ended
}

// Init makes c the concatenation of src's n children, none positioned.
func (c *Concat) Init(src ConcatSource, n int) { *c = Concat{src: src, n: n} }

// open makes child i current, or none when i is out of range or the
// stream has failed.
func (c *Concat) open(i int) bool {
	c.cur = nil
	if c.err != nil || i < 0 || i >= c.n {
		return false
	}
	c.i, c.cur = i, c.src.Open(i)
	return true
}

// enter opens child i at its near end for the direction of travel.
func (c *Concat) enter(i int, backward bool) {
	switch {
	case !c.open(i):
	case backward:
		c.cur.Last()
	default:
		c.cur.First()
	}
}

// settle moves past exhausted children in the direction of travel.  A
// failed child ends the stream; open refuses once c.err is set, so the
// error kept is the first.
func (c *Concat) settle(backward bool) {
	for c.cur != nil && !c.cur.Valid() {
		if c.err = c.cur.Err(); c.err != nil {
			c.cur = nil
			return
		}
		if backward {
			c.enter(c.i-1, true)
		} else {
			c.enter(c.i+1, false)
		}
	}
}

// First implements Iterator.
func (c *Concat) First() {
	c.enter(0, false)
	c.settle(false)
}

// Last implements ReverseIterator.
func (c *Concat) Last() {
	c.enter(c.n-1, true)
	c.settle(true)
}

// Seek implements Iterator.
func (c *Concat) Seek(target []byte) {
	if c.open(c.src.Find(target, false)) {
		c.cur.Seek(target)
		c.settle(false)
	}
}

// SeekForPrev implements ReverseIterator.
func (c *Concat) SeekForPrev(target []byte) {
	if c.open(c.src.Find(target, true)) {
		c.cur.SeekForPrev(target)
		c.settle(true)
	}
}

// Next implements Iterator.
func (c *Concat) Next() {
	if c.cur != nil {
		c.cur.Next()
		c.settle(false)
	}
}

// Prev implements ReverseIterator.
func (c *Concat) Prev() {
	if c.cur != nil {
		c.cur.Prev()
		c.settle(true)
	}
}

// Valid implements Iterator.
func (c *Concat) Valid() bool { return c.cur != nil }

// Key implements Iterator.
func (c *Concat) Key() []byte {
	if c.cur == nil {
		return nil
	}
	return c.cur.Key()
}

// Value implements Iterator.
func (c *Concat) Value() []byte {
	if c.cur == nil {
		return nil
	}
	return c.cur.Value()
}

// Err implements Iterator.
func (c *Concat) Err() error { return c.err }
