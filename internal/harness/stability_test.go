package harness

import (
	"testing"
	"time"

	"iamdb"
	"iamdb/internal/histogram"
	"iamdb/internal/ycsb"
)

func TestScoreTimeline(t *testing.T) {
	if sc := ScoreTimeline(nil); sc.Windows != 0 || sc.MeanOpsPerSec != 0 {
		t.Fatalf("empty timeline scored %+v", sc)
	}
	w := 10 * time.Millisecond
	pts := []iamdb.TimelinePoint{
		{Start: 0, End: w, Ops: 100, OpsPerSec: 10000, StallFrac: 0,
			Put: histogram.Summary{P99: 2 * time.Millisecond, P999: 3 * time.Millisecond}},
		{Start: w, End: 2 * w, Ops: 100, OpsPerSec: 10000, StallFrac: 0.5,
			Put: histogram.Summary{P99: 8 * time.Millisecond, P999: 9 * time.Millisecond}},
	}
	sc := ScoreTimeline(pts)
	if sc.Windows != 2 || sc.Window != w {
		t.Fatalf("windows=%d window=%v", sc.Windows, sc.Window)
	}
	if sc.MeanOpsPerSec != 10000 || sc.ThroughputCV != 0 {
		t.Fatalf("mean=%v cv=%v", sc.MeanOpsPerSec, sc.ThroughputCV)
	}
	if sc.WorstWindowOpsPerSec != 10000 {
		t.Fatalf("worst=%v", sc.WorstWindowOpsPerSec)
	}
	if sc.WorstP99 != 8*time.Millisecond || sc.WorstP999 != 9*time.Millisecond {
		t.Fatalf("worst p99=%v p999=%v", sc.WorstP99, sc.WorstP999)
	}
	if sc.MeanStallFrac != 0.25 {
		t.Fatalf("stall=%v", sc.MeanStallFrac)
	}
	// Uneven throughput: cv must be positive, worst window the slow one.
	pts[1].OpsPerSec = 2000
	sc = ScoreTimeline(pts)
	if sc.ThroughputCV <= 0 || sc.WorstWindowOpsPerSec != 2000 {
		t.Fatalf("cv=%v worst=%v", sc.ThroughputCV, sc.WorstWindowOpsPerSec)
	}
}

// TestStabilityTimeline runs one engine's stability flow and checks the
// acceptance shape: a timeline with at least 50 uniform windows whose
// bounds tile the measured phase, and a score with finite variance.
func TestStabilityTimeline(t *testing.T) {
	env, err := NewEnv(SmallScale.ConfigFor(iamdb.IAM, ClassSSD100G))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if _, err := env.HashLoad(); err != nil {
		t.Fatal(err)
	}
	env.ResetTimeline(50*time.Microsecond, 0)
	if _, err := env.RunWorkload(ycsb.WorkloadA, 4*SmallScale.WorkloadOps); err != nil {
		t.Fatal(err)
	}
	pts := env.Timeline()
	if len(pts) < 50 {
		t.Fatalf("timeline has %d windows, want >= 50", len(pts))
	}
	width := pts[0].End - pts[0].Start
	for i, p := range pts {
		if p.End-p.Start != width {
			t.Fatalf("window %d width %v != %v", i, p.End-p.Start, width)
		}
		if i > 0 && p.Start != pts[i-1].End {
			t.Fatalf("window %d start %v != previous end %v", i, p.Start, pts[i-1].End)
		}
	}
	var ops int64
	for _, p := range pts {
		ops += p.Ops
	}
	if ops == 0 {
		t.Fatal("no operations landed in any window")
	}
	sc := ScoreTimeline(pts)
	if sc.MeanOpsPerSec <= 0 {
		t.Fatalf("score %+v", sc)
	}
}
