package iterator

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// concatLayout is one stream's children and how a seek finds its child.
type concatLayout struct {
	name string
	kids [][]string
	// lo and hi are each child's range, with gaps between them, as a
	// level's tables have; the children open lazily, one at a time.
	lo, hi []string
	// splits partition the keys instead, as the stores do: child i owns
	// [splits[i-1], splits[i]); the children are opened together up front.
	splits []string
	// fail is the index of a child that reports errBoom, or -1.
	fail int
}

var errBoom = errors.New("boom")

var concatLayouts = []concatLayout{
	{
		name: "level with gaps",
		kids: [][]string{{"b", "c"}, {}, {"g", "h"}, {"k", "m"}},
		lo:   []string{"b", "e", "g", "k"},
		hi:   []string{"c", "e", "h", "m"},
		fail: -1,
	},
	{
		name:   "contiguous partition",
		kids:   [][]string{{"a", "c"}, {}, {"j", "n"}, {"p", "x"}},
		splits: []string{"d", "j", "p"},
		fail:   -1,
	},
}

// concatSource hands out its layout's children, each wrapped so that the
// test sees every Open, every Close and any use of a closed child.
type concatSource struct {
	Concat
	t              *testing.T
	l              concatLayout
	captured       []*countedIter // the partition's children, nil when lazy
	open           *countedIter   // the lazily opened child
	opened, closed int
}

func newConcatSource(t *testing.T, l concatLayout) *concatSource {
	s := &concatSource{t: t, l: l}
	if l.splits != nil {
		for i := range l.kids {
			s.captured = append(s.captured, s.child(i))
		}
	}
	s.Init(s, len(l.kids))
	return s
}

func (s *concatSource) child(i int) *countedIter {
	s.opened++
	var it ReverseIterator = sliceOf(s.l.kids[i]...)
	if i == s.l.fail {
		it = Failed{Cause: errBoom}
	}
	return &countedIter{ReverseIterator: it, src: s}
}

func (s *concatSource) Open(i int) ReverseIterator {
	if s.captured != nil {
		return s.captured[i]
	}
	if s.open != nil {
		s.open.Close()
	}
	s.open = s.child(i)
	return s.open
}

func (s *concatSource) Find(target []byte, backward bool) int {
	u := string(target)
	switch {
	case s.l.splits != nil:
		return sort.Search(len(s.l.splits), func(i int) bool { return s.l.splits[i] > u })
	case backward:
		return sort.Search(len(s.l.lo), func(i int) bool { return s.l.lo[i] > u }) - 1
	default:
		return sort.Search(len(s.l.hi), func(i int) bool { return s.l.hi[i] >= u })
	}
}

func (s *concatSource) Close() error {
	for _, c := range s.captured {
		c.Close()
	}
	if s.open != nil {
		s.open.Close()
		s.open = nil
	}
	return nil
}

type countedIter struct {
	ReverseIterator
	src    *concatSource
	closed bool
}

func (c *countedIter) check() {
	if c.closed {
		c.src.t.Error("a closed child was used")
	}
}

func (c *countedIter) Valid() bool   { c.check(); return c.ReverseIterator.Valid() }
func (c *countedIter) Key() []byte   { c.check(); return c.ReverseIterator.Key() }
func (c *countedIter) Value() []byte { c.check(); return c.ReverseIterator.Value() }

func (c *countedIter) Close() error {
	if c.closed {
		c.src.t.Error("a child was closed twice")
	}
	c.closed = true
	c.src.closed++
	return nil
}

// concatStart positions a stream and says where the oracle, the sorted
// list of every key, starts: an index in it, or -1 / len for none.
type concatStart struct {
	name string
	do   func(it ReverseIterator)
	at   func(keys []string) int
}

func concatStarts() []concatStart {
	starts := []concatStart{
		{"First", func(it ReverseIterator) { it.First() }, func([]string) int { return 0 }},
		{"Last", func(it ReverseIterator) { it.Last() }, func(k []string) int { return len(k) - 1 }},
	}
	// Before every child, on and between keys, in gaps, in the empty
	// child and past the last child.
	for _, t := range strings.Fields("0 a b bb c d e f g h i j k l m n o p q x zz") {
		starts = append(starts,
			concatStart{"Seek(" + t + ")", func(it ReverseIterator) { it.Seek([]byte(t)) },
				func(k []string) int { return sort.SearchStrings(k, t) }},
			concatStart{"SeekForPrev(" + t + ")", func(it ReverseIterator) { it.SeekForPrev([]byte(t)) },
				func(k []string) int { return sort.Search(len(k), func(i int) bool { return k[i] > t }) - 1 }})
	}
	return starts
}

// TestConcatMatchesSortedKeys positions each layout's stream every way
// there is and walks it forward, backward and back and forth across
// child boundaries, against the sorted list of its keys.
func TestConcatMatchesSortedKeys(t *testing.T) {
	walks := []string{"nnnnnnnnn", "ppppppppp", "npnpnpnp", "pnpnpnpn", "nnnpppppp", "pppnnnnnn"}
	for _, l := range concatLayouts {
		var keys []string
		for _, k := range l.kids {
			keys = append(keys, k...)
		}
		for _, st := range concatStarts() {
			for _, walk := range walks {
				src := newConcatSource(t, l)
				st.do(src)
				at := st.at(keys)
				for step := 0; ; step++ {
					where := fmt.Sprintf("%s: %s then %q", l.name, st.name, walk[:step])
					want := at >= 0 && at < len(keys)
					if src.Valid() != want || want && string(src.Key()) != keys[at] {
						t.Fatalf("%s: at %q valid %v, want %v", where, src.Key(), src.Valid(), want)
					}
					if want && string(src.Value()) != "v:"+keys[at] {
						t.Fatalf("%s: value %q", where, src.Value())
					}
					if src.Err() != nil {
						t.Fatalf("%s: %v", where, src.Err())
					}
					if !want || step == len(walk) {
						break
					}
					if walk[step] == 'n' {
						src.Next()
						at++
					} else {
						src.Prev()
						at--
					}
				}
				src.Close()
				if src.opened != src.closed {
					t.Fatalf("%s: %s: %d children handed out, %d closed", l.name, st.name, src.opened, src.closed)
				}
			}
		}
	}
}

// TestConcatStopsAtFailedChild checks that the first child error ends
// the stream whichever way it is reached, and that every child is still
// closed once.
func TestConcatStopsAtFailedChild(t *testing.T) {
	layouts := []concatLayout{
		{name: "level", kids: [][]string{{"a", "b"}, nil, {"e", "f"}},
			lo: []string{"a", "c", "e"}, hi: []string{"b", "d", "f"}, fail: 1},
		{name: "partition", kids: [][]string{{"a", "b"}, nil, {"e", "f"}},
			splits: []string{"c", "e"}, fail: 1},
	}
	cases := []struct {
		name string
		do   func(it ReverseIterator)
	}{
		{"Next into it", func(it ReverseIterator) { it.First(); it.Next(); it.Next() }},
		{"Prev into it", func(it ReverseIterator) { it.Last(); it.Prev(); it.Prev() }},
		{"Seek into it", func(it ReverseIterator) { it.Seek([]byte("c")) }},
		{"SeekForPrev into it", func(it ReverseIterator) { it.SeekForPrev([]byte("d")) }},
		{"Next after it", func(it ReverseIterator) { it.Seek([]byte("c")); it.Next() }},
		{"First after it", func(it ReverseIterator) { it.Seek([]byte("c")); it.First() }},
	}
	for _, l := range layouts {
		for _, c := range cases {
			src := newConcatSource(t, l)
			c.do(src)
			if src.Valid() || !errors.Is(src.Err(), errBoom) || src.Key() != nil {
				t.Errorf("%s: %s: valid %v, err %v, key %q", l.name, c.name, src.Valid(), src.Err(), src.Key())
			}
			src.Close()
			if src.opened != src.closed {
				t.Errorf("%s: %s: %d children handed out, %d closed", l.name, c.name, src.opened, src.closed)
			}
		}
	}
}

// TestConcatCallsNoSourceWithinAChild checks that Next and Prev inside
// a child reach the child directly: a walk over one child's keys opens
// nothing further.
func TestConcatCallsNoSourceWithinAChild(t *testing.T) {
	l := concatLayout{name: "level", kids: [][]string{{"a", "b", "c", "d"}, {"x"}},
		lo: []string{"a", "x"}, hi: []string{"d", "x"}, fail: -1}
	src := newConcatSource(t, l)
	src.First()
	for range 3 {
		src.Next()
	}
	src.Prev()
	if src.opened != 1 || !bytes.Equal(src.Key(), []byte("c")) {
		t.Fatalf("opened %d children, at %q", src.opened, src.Key())
	}
	src.Close()
}
