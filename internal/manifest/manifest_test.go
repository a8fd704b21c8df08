package manifest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"iamdb/internal/kv"
	"iamdb/internal/vfs"
)

func TestEditEncodeDecodeRoundTrip(t *testing.T) {
	e := &Edit{
		Added: []NodeRecord{
			{Level: 1, FileNum: 7, Lo: []byte("a"), Hi: []byte("m")},
			{Level: 2, FileNum: 9, Lo: []byte("n"), Hi: []byte("z")},
		},
		Deleted:  []NodeRef{{Level: 1, FileNum: 3}},
		NextFile: 10, SetNextFile: true,
		LastSeq: 999, SetLastSeq: true,
		LogNum: 4, SetLogNum: true,
		NumLevels: 5, SetLevels: true,
	}
	got, err := decodeEdit(e.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Added) != 2 || len(got.Deleted) != 1 {
		t.Fatalf("added=%d deleted=%d", len(got.Added), len(got.Deleted))
	}
	if got.Added[0].FileNum != 7 || string(got.Added[0].Lo) != "a" || string(got.Added[1].Hi) != "z" {
		t.Fatalf("added: %+v", got.Added)
	}
	if !got.SetNextFile || got.NextFile != 10 || !got.SetLastSeq || got.LastSeq != 999 {
		t.Fatalf("scalars: %+v", got)
	}
	if !got.SetLogNum || got.LogNum != 4 || !got.SetLevels || got.NumLevels != 5 {
		t.Fatalf("scalars2: %+v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeEdit([]byte{99}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := decodeEdit([]byte{tagAdded, 1}); err == nil {
		t.Error("truncated added accepted")
	}
}

func TestStateApply(t *testing.T) {
	st := &State{}
	if err := st.Apply(&Edit{Added: []NodeRecord{
		{Level: 1, FileNum: 2, Lo: []byte("m"), Hi: []byte("p")},
		{Level: 1, FileNum: 1, Lo: []byte("a"), Hi: []byte("c")},
	}}); err != nil {
		t.Fatal(err)
	}
	// Apply keeps edit order; Replay sorts (TestReplaySortsOnce).
	if len(st.Levels[1]) != 2 || st.Levels[1][0].FileNum != 2 {
		t.Fatalf("apply: %+v", st.Levels[1])
	}
	if err := st.Apply(&Edit{Deleted: []NodeRef{{Level: 1, FileNum: 1}}}); err != nil {
		t.Fatal(err)
	}
	if len(st.Levels[1]) != 1 || st.Levels[1][0].FileNum != 2 {
		t.Fatalf("delete: %+v", st.Levels[1])
	}
	if err := st.Apply(&Edit{Deleted: []NodeRef{{Level: 1, FileNum: 42}}}); err == nil {
		t.Error("deleting absent file must fail")
	}
	if err := st.Apply(&Edit{Deleted: []NodeRef{{Level: 9, FileNum: 1}}}); err == nil {
		t.Error("deleting on absent level must fail")
	}
}

// TestReplaySortsOnce replays a long random history of adds and deletes
// across four levels and wants the State that sorting every level after
// every edit gives, which is what Apply did before Replay took the sort.
// Level 0 repeats Lo keys, so ties must keep the order they were added.
func TestReplaySortsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := vfs.NewMemFS()
	log, err := Create(fs, "MANIFEST", &State{})
	if err != nil {
		t.Fatal(err)
	}
	want := &State{}
	var live []NodeRef
	for i := range 2000 {
		e := &Edit{LastSeq: kv.Seq(i), SetLastSeq: true}
		for range min(rng.Intn(2), len(live)) {
			j := rng.Intn(len(live))
			e.Deleted = append(e.Deleted, live[j])
			live = slices.Delete(live, j, j+1)
		}
		for range rng.Intn(4) {
			lvl := rng.Intn(4)
			lo := fmt.Sprintf("k%04d", rng.Intn(10000))
			if lvl == 0 {
				lo = fmt.Sprintf("k%d", rng.Intn(5))
			}
			n := NodeRecord{Level: lvl, FileNum: uint64(i*4 + len(e.Added) + 1), Lo: []byte(lo), Hi: []byte(lo + "z")}
			e.Added = append(e.Added, n)
			live = append(live, NodeRef{Level: lvl, FileNum: n.FileNum})
		}
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := want.Apply(e); err != nil {
			t.Fatal(err)
		}
		for _, lvl := range want.Levels {
			slices.SortStableFunc(lvl, func(a, b NodeRecord) int { return kv.CompareUser(a.Lo, b.Lo) })
		}
	}
	log.Close()
	got, _, err := Replay(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if len(live) < 100 {
		t.Fatalf("history left %d live tables; want a longer one", len(live))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state differs from sorting after every edit:\n got %+v\nwant %+v", got.Levels, want.Levels)
	}
}

func TestCreateAppendReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	st := &State{NextFile: 1, LastSeq: 0, NumLevels: 3}
	log, err := Create(fs, "MANIFEST", st)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		e := &Edit{
			Added:    []NodeRecord{{Level: 1, FileNum: i, Lo: []byte{byte('a' + i)}, Hi: []byte{byte('a' + i)}}},
			NextFile: i + 1, SetNextFile: true,
			LastSeq: kv.Seq(i * 100), SetLastSeq: true,
		}
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// Delete half.
	for i := uint64(1); i <= 5; i++ {
		if err := log.Append(&Edit{Deleted: []NodeRef{{Level: 1, FileNum: i}}}); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	got, _, err := Replay(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if got.NextFile != 11 || got.LastSeq != 1000 || got.NumLevels != 3 {
		t.Fatalf("state: %+v", got)
	}
	if len(got.Levels[1]) != 5 {
		t.Fatalf("level1 has %d nodes", len(got.Levels[1]))
	}
	for i, n := range got.Levels[1] {
		if n.FileNum != uint64(i+6) {
			t.Fatalf("node %d filenum %d", i, n.FileNum)
		}
	}
}

func TestReplayTornTail(t *testing.T) {
	fs := vfs.NewMemFS()
	log, _ := Create(fs, "MANIFEST", &State{NextFile: 1})
	log.Append(&Edit{Added: []NodeRecord{{Level: 0, FileNum: 1, Lo: []byte("a"), Hi: []byte("b")}}})
	log.Close()
	f, _ := fs.Open("MANIFEST")
	size, _ := f.Size()
	f.Close()
	fs.Truncate("MANIFEST", size-3) // tear the last record
	st, dropped, err := Replay(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Error("torn tail not reported")
	}
	// The torn edit is dropped; the snapshot survives.
	if st.NextFile != 1 {
		t.Fatalf("state after torn tail: %+v", st)
	}
	if len(st.Levels) != 0 {
		t.Fatalf("torn edit applied: %+v", st.Levels)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := &State{NextFile: 42, LastSeq: 7, LogNum: 3, NumLevels: 4}
	st.Levels = [][]NodeRecord{
		nil,
		{{Level: 1, FileNum: 1, Lo: []byte("a"), Hi: []byte("b")}},
		{{Level: 2, FileNum: 2, Lo: []byte("c"), Hi: []byte("d")}, {Level: 2, FileNum: 3, Lo: []byte("e"), Hi: []byte("f")}},
	}
	snap := st.Snapshot()
	st2 := &State{}
	if err := st2.Apply(snap); err != nil {
		t.Fatal(err)
	}
	if st2.NextFile != 42 || st2.LastSeq != 7 || st2.LogNum != 3 || st2.NumLevels != 4 {
		t.Fatalf("scalars: %+v", st2)
	}
	if len(st2.Levels[1]) != 1 || len(st2.Levels[2]) != 2 {
		t.Fatalf("levels: %+v", st2.Levels)
	}
}

func TestEditQuickRoundTrip(t *testing.T) {
	f := func(lvl uint8, fn uint64, lo, hi []byte, seq uint64) bool {
		e := &Edit{
			Added:   []NodeRecord{{Level: int(lvl % 8), FileNum: fn, Lo: lo, Hi: hi}},
			LastSeq: kv.Seq(seq & uint64(kv.MaxSeq)), SetLastSeq: true,
		}
		got, err := decodeEdit(e.encode())
		if err != nil || len(got.Added) != 1 {
			return false
		}
		a := got.Added[0]
		return a.Level == int(lvl%8) && a.FileNum == fn &&
			string(a.Lo) == string(lo) && string(a.Hi) == string(hi) &&
			got.LastSeq == kv.Seq(seq&uint64(kv.MaxSeq))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManyLevels(t *testing.T) {
	fs := vfs.NewMemFS()
	log, _ := Create(fs, "M", &State{})
	var e Edit
	for lvl := 0; lvl < 7; lvl++ {
		for i := 0; i < 10; i++ {
			e.Added = append(e.Added, NodeRecord{
				Level: lvl, FileNum: uint64(lvl*100 + i),
				Lo: []byte(fmt.Sprintf("%02d", i)), Hi: []byte(fmt.Sprintf("%02d~", i)),
			})
		}
	}
	log.Append(&e)
	log.Close()
	st, _, err := Replay(fs, "M")
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl < 7; lvl++ {
		if len(st.Levels[lvl]) != 10 {
			t.Fatalf("level %d: %d nodes", lvl, len(st.Levels[lvl]))
		}
	}
}
