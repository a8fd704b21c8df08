package main

// The shards experiment measures what the range-sharded front-end buys
// under real write contention: N goroutines issue synchronous Puts
// against a DB with S independent shards, and throughput is wall-clock
// ops/sec.  Like the concurrency experiment, whose driver it runs, it
// lives in cmd/iambench because it reads the wall clock.
//
// The filesystem models the two costs sharding attacks: a fixed
// per-sync device latency (what group commit amortizes within one
// pipeline) and a write-bandwidth term proportional to the bytes each
// sync makes durable (what a single pipeline serializes and S pipelines
// overlap).  With 4 KiB values the bandwidth term dominates, so a
// single commit pipeline bottlenecks on serialized sync time no matter
// how large its groups get — multiple shards drain it in parallel.
//
// A skewed variant sends 90% of the keys to shard 0's range, showing
// the flip side: range sharding only scales when load spreads across
// the ranges.

import (
	"fmt"
	"time"

	"iamdb/internal/harness"
	"iamdb/internal/vfs"
)

const (
	// shardSyncBase is the modeled per-sync device latency.
	shardSyncBase = 40 * time.Microsecond
	// shardSyncBW is the modeled device write bandwidth charged per
	// synced byte.
	shardSyncBW = 100 << 20 // 100 MB/s
	// shardValueSize is large enough that bandwidth, not sync count,
	// dominates — the regime where independent pipelines pay off.
	shardValueSize = 4096
	// shardWriters is the contention level of the headline comparison.
	shardWriters = 16
)

// shardKeyByte picks op i of writer w's routing byte: spread uniformly
// over the key space, or 90% concentrated in shard 0's quarter of it.
func shardKeyByte(w, i int, skewed bool) byte {
	h := (i*131 + w*53) % 256
	if skewed && (i*7+w)%10 != 0 {
		return byte(h % 64) // shard 0 of 4 under default splits
	}
	return byte(h)
}

// runShards produces the sharding table: ops/sec and speedup over one
// shard at a fixed writer count, then the skewed-key rows.
func runShards(s harness.Scale) (harness.Table, error) {
	ops := 4000
	if s.Name == "small" {
		ops = 800
	}
	tbl := harness.Table{
		Title: fmt.Sprintf(
			"Sharded commit throughput: %d writers, %d sync Puts of %d B on MemFS (sync %v + %d MB/s)",
			shardWriters, ops, shardValueSize, shardSyncBase, shardSyncBW>>20),
		Header: []string{"keys", "shards", "ops/sec", "speedup"},
	}
	var base float64
	for _, row := range []struct {
		dist   string
		shards int
	}{{"uniform", 1}, {"uniform", 2}, {"uniform", 4}, {"uniform", 8}, {"skewed", 1}, {"skewed", 4}} {
		skewed := row.dist == "skewed"
		opsPerSec, _, err := writersRun(
			latFS{FS: vfs.NewMemFS(), base: shardSyncBase, perByte: float64(time.Second) / shardSyncBW},
			harness.MetricsRecord{
				Engine: fmt.Sprintf("IAM-%dshards-%s", row.shards, row.dist),
				Disk:   fmt.Sprintf("mem+sync%v+%dMBps", shardSyncBase, shardSyncBW>>20),
			}, shardWriters, row.shards, ops, shardValueSize,
			func(key []byte, w, i int) []byte {
				return fmt.Appendf(append(key, shardKeyByte(w, i, skewed)), "w%03d-%09d", w, i)
			})
		if err != nil {
			return harness.Table{}, err
		}
		if base == 0 {
			base = opsPerSec
		}
		tbl.Rows = append(tbl.Rows, []string{
			row.dist,
			fmt.Sprintf("%d", row.shards),
			fmt.Sprintf("%.0f", opsPerSec),
			fmt.Sprintf("%.2fx", opsPerSec/base),
		})
	}
	return tbl, nil
}
