package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"iamdb/internal/kv"
)

func TestDefaultSplitsRouting(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16} {
		p, err := NewPartition(n, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.Count() != n {
			t.Fatalf("n=%d: Count=%d", n, p.Count())
		}
		// Every byte prefix routes to exactly one shard, and the shard
		// index is monotone in the key.
		prev := 0
		seen := map[int]bool{}
		for b := 0; b < 256; b++ {
			idx := p.IndexOf([]byte{byte(b)})
			if idx < 0 || idx >= n {
				t.Fatalf("n=%d: byte %d routed to %d", n, b, idx)
			}
			if idx < prev {
				t.Fatalf("n=%d: routing not monotone at byte %d", n, b)
			}
			prev = idx
			seen[idx] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d: only %d shards reachable", n, len(seen))
		}
		// The empty key belongs to shard 0.
		if got := p.IndexOf(nil); got != 0 {
			t.Fatalf("n=%d: empty key routed to %d", n, got)
		}
	}
}

func TestPartitionSplitBoundaries(t *testing.T) {
	p, err := NewPartition(3, [][]byte{[]byte("g"), []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  string
		want int
	}{
		{"", 0}, {"a", 0}, {"fzzz", 0},
		{"g", 1}, {"gg", 1}, {"ozzz", 1},
		{"p", 2}, {"z", 2},
	}
	for _, c := range cases {
		if got := p.IndexOf([]byte(c.key)); got != c.want {
			t.Errorf("IndexOf(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	if _, err := NewPartition(1, nil); err == nil {
		t.Error("1 shard accepted")
	}
	if _, err := NewPartition(3, [][]byte{[]byte("a")}); err == nil {
		t.Error("wrong split count accepted")
	}
	if _, err := NewPartition(3, [][]byte{[]byte("b"), []byte("a")}); err == nil {
		t.Error("decreasing splits accepted")
	}
	if _, err := NewPartition(3, [][]byte{[]byte("a"), []byte("a")}); err == nil {
		t.Error("duplicate splits accepted")
	}
	if _, err := NewPartition(2, [][]byte{nil}); err == nil {
		t.Error("empty split accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, splits := range [][][]byte{
		nil,
		{[]byte("key0100"), []byte("key0200"), []byte("key0300")},
		{{0x40}, {0x80}, {0xc0}},
	} {
		n := 4
		p, err := NewPartition(n, splits)
		if err != nil {
			t.Fatal(err)
		}
		enc := p.Encode()
		got, err := DecodePartition(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip mismatch: %v vs %v", got.Splits(), p.Splits())
		}
		// Determinism: encoding is byte-stable.
		if !bytes.Equal(enc, p.Encode()) {
			t.Fatal("encoding not deterministic")
		}
	}
}

func TestDecodeDetectsDamage(t *testing.T) {
	p, err := NewPartition(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encode()
	// Every single-byte flip must fail the CRC (or produce an equal
	// partition — impossible for a flip, so: must fail).
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, err := DecodePartition(bad); err == nil {
			t.Fatalf("flip at %d decoded cleanly", i)
		}
	}
	// Truncations fail too.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodePartition(enc[:i]); err == nil {
			t.Fatalf("truncation to %d decoded cleanly", i)
		}
	}
}

// begin allocates one ticket the way the router does, minus the queue
// appends it makes under the same hold.
func begin(s *Sequencer, n int) Ticket {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.Alloc(n)
}

func TestSequencerWatermarkPrefix(t *testing.T) {
	s := NewSequencer(100)
	t1 := begin(s, 3) // 101..103
	t2 := begin(s, 2) // 104..105
	t3 := begin(s, 1) // 106
	if t1.Base != 101 || t1.End != 103 || t2.Base != 104 || t3.End != 106 {
		t.Fatalf("allocation ranges wrong: %+v %+v %+v", t1, t2, t3)
	}
	if s.Visible() != 100 {
		t.Fatalf("visible %d before any End", s.Visible())
	}
	// Completing out of order must not expose the gap.
	s.End(t2)
	if s.Visible() != 100 {
		t.Fatalf("visible %d after out-of-order End", s.Visible())
	}
	s.End(t1)
	if s.Visible() != 105 {
		t.Fatalf("visible %d after prefix complete, want 105", s.Visible())
	}
	s.End(t3)
	if s.Visible() != 106 {
		t.Fatalf("visible %d after all complete", s.Visible())
	}
}

func TestSequencerWaitVisible(t *testing.T) {
	s := NewSequencer(0)
	tk := begin(s, 5)
	done := make(chan struct{})
	go func() {
		s.WaitVisible(tk.End)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitVisible returned before End")
	default:
	}
	s.End(tk)
	<-done
	if s.Visible() != 5 {
		t.Fatalf("visible %d", s.Visible())
	}
}

func TestSequencerConcurrent(t *testing.T) {
	s := NewSequencer(0)
	const workers, perW = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tk := begin(s, 2)
				s.End(tk)
				s.WaitVisible(tk.End)
				if v := s.Visible(); v < tk.End {
					t.Errorf("visible %d below waited-for %d", v, tk.End)
					return
				}
			}
		}()
	}
	wg.Wait()
	if want := kv.Seq(workers * perW * 2); s.Visible() != want {
		t.Fatalf("final visible %d, want %d", s.Visible(), want)
	}
}

func TestSequencerRangesContiguous(t *testing.T) {
	s := NewSequencer(7)
	var prevEnd kv.Seq = 7
	for i := 0; i < 50; i++ {
		tk := begin(s, i%3+1)
		if tk.Base != prevEnd+1 {
			t.Fatalf("ticket %d base %d, want %d", i, tk.Base, prevEnd+1)
		}
		prevEnd = tk.End
		s.End(tk)
	}
	_ = fmt.Sprintf("%d", prevEnd)
}
