package harness

import (
	"fmt"
	"math"
	"time"

	"iamdb"
	"iamdb/internal/ycsb"
)

// StabilityScore condenses a timeline into the quantities the paper's
// stability argument (Sec. 6.2: the tuning phase drags the baselines'
// early performance) cares about: how even the throughput is across
// windows and how bad the worst window gets.
type StabilityScore struct {
	// Windows is the number of closed timeline windows scored; Window
	// is their width after folding.
	Windows int
	Window  time.Duration
	// MeanOpsPerSec averages the per-window rates; ThroughputCV is
	// their coefficient of variation (stddev/mean — 0 is perfectly
	// steady).
	MeanOpsPerSec float64
	ThroughputCV  float64
	// WorstWindowOpsPerSec is the slowest window's rate (a stalled
	// window scores 0).
	WorstWindowOpsPerSec float64
	// WorstP99/WorstP999 are the worst per-window interval commit
	// latency percentiles — tails a whole-run histogram averages away.
	WorstP99  time.Duration
	WorstP999 time.Duration
	// MeanStallFrac is the average fraction of window time spent in
	// write stalls.
	MeanStallFrac float64
}

// ScoreTimeline computes a StabilityScore over closed windows.
func ScoreTimeline(pts []iamdb.TimelinePoint) StabilityScore {
	sc := StabilityScore{Windows: len(pts)}
	if len(pts) == 0 {
		return sc
	}
	sc.Window = pts[len(pts)-1].End - pts[len(pts)-1].Start
	var sum, sumsq, stall float64
	worst := math.Inf(1)
	for _, p := range pts {
		v := p.OpsPerSec
		sum += v
		sumsq += v * v
		if v < worst {
			worst = v
		}
		stall += p.StallFrac
		if p.Put.P99 > sc.WorstP99 {
			sc.WorstP99 = p.Put.P99
		}
		if p.Put.P999 > sc.WorstP999 {
			sc.WorstP999 = p.Put.P999
		}
	}
	n := float64(len(pts))
	mean := sum / n
	sc.MeanOpsPerSec = mean
	if variance := sumsq/n - mean*mean; variance > 0 && mean > 0 {
		sc.ThroughputCV = math.Sqrt(variance) / mean
	}
	sc.WorstWindowOpsPerSec = worst
	sc.MeanStallFrac = stall / n
	return sc
}

// Stability runs the sustained-mixed-workload stability experiment:
// hash load, then 8×WorkloadOps of YCSB A (50/50 read/update) on the
// SSD-100G class, scoring each engine's timeline on throughput variance
// and worst-window tail latency.  The per-window numbers come
// from the timeline sampler, scoped to the measured phase.
func (s Scale) Stability() (Table, error) {
	t := Table{
		Title: "Stability: sustained YCSB-A, SSD-100G, per-window variance",
		Header: []string{"config", "windows", "win(ms)", "mean-kops", "cv",
			"worst-kops", "worst-p99", "worst-p99.9", "stall%"},
	}
	for _, e := range paperEngines {
		env, err := NewEnv(s.ConfigFor(e, ClassSSD100G))
		if err != nil {
			return t, err
		}
		if _, err := env.HashLoad(); err != nil {
			env.Close()
			return t, err
		}
		// Score only the sustained phase: restart the timeline after the
		// load so its windows cover the measured run alone.
		env.ResetTimeline(50*time.Microsecond, 0)
		if _, err := env.RunWorkload(ycsb.WorkloadA, 8*s.WorkloadOps); err != nil {
			env.Close()
			return t, err
		}
		sc := ScoreTimeline(env.Timeline())
		t.Rows = append(t.Rows, []string{
			engineTag(e),
			fmt.Sprint(sc.Windows),
			fmt.Sprintf("%.2f", float64(sc.Window.Microseconds())/1000),
			fmt.Sprintf("%.1f", sc.MeanOpsPerSec/1000),
			f2(sc.ThroughputCV),
			fmt.Sprintf("%.1f", sc.WorstWindowOpsPerSec/1000),
			ms(sc.WorstP99),
			ms(sc.WorstP999),
			fmt.Sprintf("%.1f", 100*sc.MeanStallFrac),
		})
		env.Close()
	}
	return t, nil
}
