package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestClocks(t *testing.T) {
	mc := new(ManualClock)
	if mc.Now() != 0 {
		t.Fatal("manual clock must start at zero")
	}
	mc.Advance(3 * time.Second)
	if mc.Now() != 3*time.Second {
		t.Fatalf("manual clock = %v", mc.Now())
	}
	if NopClock.Now() != 0 {
		t.Fatal("nop clock must read zero")
	}
}

func TestEnsureDefaultsNilSafe(t *testing.T) {
	var nilL *EventListener
	l := nilL.EnsureDefaults()
	// Every callback must be callable without panicking.
	l.FlushEnd(FlushInfo{})
	l.AppendEnd(AppendInfo{})
	l.MergeEnd(MergeInfo{})
	l.MoveEnd(MoveInfo{})
	l.SplitEnd(SplitInfo{})
	l.CombineEnd(CombineInfo{})
	l.WALRotated(WALRotationInfo{})
	l.ManifestEdit(ManifestEditInfo{})
	l.TableCreated(TableInfo{})
	l.TableDeleted(TableInfo{})
	l.WriteStallBegin(StallInfo{})
	l.WriteStallEnd(StallInfo{})

	// Partially-populated listeners keep their callbacks.
	n := 0
	part := (&EventListener{FlushEnd: func(FlushInfo) { n++ }}).EnsureDefaults()
	part.FlushEnd(FlushInfo{})
	part.MergeEnd(MergeInfo{}) // filled with a no-op
	if n != 1 {
		t.Fatalf("kept callback fired %d times, want 1", n)
	}
}

func TestLoggingListener(t *testing.T) {
	var lines []string
	logging := NewLoggingListener(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	logging.SplitEnd(SplitInfo{Level: 2, Bytes: 10, NewNodes: 2})
	logging.FlushEnd(FlushInfo{Bytes: 5})
	if len(lines) != 2 || !strings.Contains(lines[0], "split") {
		t.Fatalf("logging listener lines: %q", lines)
	}
}
