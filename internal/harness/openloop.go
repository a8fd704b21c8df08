package harness

import (
	"fmt"
	"math/rand"
	"time"

	"iamdb/internal/histogram"
	"iamdb/internal/ycsb"
)

// OpenLoop reads Sec. 6.2's claim, that the baselines' tuning phase drags
// their early performance, as latency under a fixed offered load.  A
// closed-loop client cannot see it: it slows down with the store, so no
// operation ever waits behind another.  Background work runs inline, so
// the store is idle between operations and an operation's service time
// does not depend on when it arrives.  One closed-loop YCSB-A run per
// engine (hash load, then 8×WorkloadOps on the SSD-100G class) therefore
// gives both the peak rate and every operation's service time, and
// seeded Poisson arrivals at each share of that peak are queued in front
// of them.  Latency runs from arrival.
func (s Scale) OpenLoop() (Table, error) {
	t := Table{
		Title: "Open loop: YCSB-A at shares of closed-loop peak, SSD-100G, latency from arrival",
		Header: []string{"config", "load", "offered-kops", "p50", "p99", "p99.9",
			"max", "deepest-queue"},
	}
	for _, e := range paperEngines {
		cfg := s.ConfigFor(e, ClassSSD100G)
		env, err := NewEnv(cfg)
		if err != nil {
			return t, err
		}
		_, err = env.HashLoad()
		var r RunResult
		if err == nil {
			r, err = env.RunWorkload(ycsb.WorkloadA, 8*s.WorkloadOps)
		}
		env.Close()
		if err != nil {
			return t, err
		}
		for _, share := range []float64{0.5, 0.8, 0.95} {
			// The same draws at every share and for every engine: only
			// the rate they are scaled by differs.
			rng := rand.New(rand.NewSource(cfg.Seed))
			offered := share * r.OpsPerSec
			meanGap := float64(time.Second) / offered
			arrive := make([]time.Duration, len(r.Service))
			var at time.Duration
			for i := range arrive {
				at += time.Duration(rng.ExpFloat64() * meanGap)
				arrive[i] = at
			}
			lat, deepest := queue(r.Service, arrive)
			h := histogram.New()
			for _, l := range lat {
				h.Record(l)
			}
			t.Rows = append(t.Rows, []string{
				engineTag(e), f2(share), fmt.Sprintf("%.1f", offered/1000),
				ms(h.Percentile(0.5)), ms(h.Percentile(0.99)), ms(h.Percentile(0.999)),
				ms(h.Max()), fmt.Sprint(deepest),
			})
		}
	}
	return t, nil
}

// queue serves operations first come, first served on one store.
// Operation i arrives at arrive[i] (non-decreasing) and holds the store
// for service[i] from max(arrive[i], end of i−1).  It returns each
// operation's latency, end − arrival, and the deepest queue: the most
// operations an arrival found ahead of it, waiting or in service.
func queue(service, arrive []time.Duration) (lat []time.Duration, deepest int) {
	lat = make([]time.Duration, len(service))
	end := make([]time.Duration, len(service))
	var free time.Duration // when the store finishes the operation before i
	done := 0              // operations finished by the current arrival
	for i, a := range arrive {
		for done < i && end[done] <= a {
			done++
		}
		deepest = max(deepest, i-done)
		free = max(a, free) + service[i]
		end[i] = free
		lat[i] = free - a
	}
	return lat, deepest
}
