// Command iamload drives YCSB workloads against a real on-disk
// database directory with wall-clock timing — the companion to
// cmd/iambench's virtual-disk experiments, for measuring this library
// on actual hardware.
//
// Usage:
//
//	iamload -db ./data -engine IAM -records 100000 load
//	iamload -db ./data -engine IAM -ops 50000 run A
//	iamload -db ./data compact
//
// `load` hash-loads -records rows of -value bytes; `run <A..G>`
// executes -ops operations of a YCSB workload and prints throughput
// and latency percentiles; `compact` settles all pending compactions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"iamdb"
	"iamdb/internal/histogram"
	"iamdb/internal/ycsb"
)

func main() {
	var (
		dir     = flag.String("db", "./iamload-data", "database directory")
		engine  = flag.String("engine", "IAM", "IAM | LSA | LevelDB | RocksDB")
		records = flag.Uint64("records", 100000, "records for load / keyspace for run")
		ops     = flag.Int("ops", 50000, "operations for run")
		value   = flag.Int("value", 1024, "value size in bytes")
		ctMB    = flag.Int64("ct", 8, "memtable/node capacity in MiB")
		cacheMB = flag.Int64("cache", 64, "block cache size in MiB")
		threads = flag.Int("threads", 1, "compaction threads")
		seed    = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	kind, ok := map[string]iamdb.EngineKind{
		"IAM": iamdb.IAM, "LSA": iamdb.LSA,
		"LevelDB": iamdb.LevelDB, "RocksDB": iamdb.RocksDB,
	}[*engine]
	if !ok {
		fatalf("unknown engine %q", *engine)
	}

	db, err := iamdb.Open(*dir, &iamdb.Options{
		Engine:            kind,
		MemtableSize:      *ctMB << 20,
		CacheSize:         *cacheMB << 20,
		CompactionThreads: *threads,
	})
	if err != nil {
		fatalf("open: %v", err)
	}

	switch args[0] {
	case "load":
		val := make([]byte, *value)
		for i := range val {
			val[i] = byte('a' + i%26)
		}
		hist := histogram.New()
		start := time.Now()
		for i := uint64(0); i < *records; i++ {
			t0 := time.Now()
			if err := db.Put(ycsb.KeyName(i), val); err != nil {
				fatalf("put: %v", err)
			}
			hist.Record(time.Since(t0))
			if (i+1)%100000 == 0 {
				fmt.Printf("  %d/%d...\n", i+1, *records)
			}
		}
		elapsed := time.Since(start)
		m := db.Metrics()
		fmt.Printf("loaded %d records in %v (%.0f ops/s)\n",
			*records, elapsed.Round(time.Millisecond),
			float64(*records)/elapsed.Seconds())
		fmt.Printf("latency: %v\n", hist)
		fmt.Printf("write amp (excl. WAL): %.2f, space %.1f MiB\n",
			m.WriteAmplification(), float64(m.SpaceUsed)/(1<<20))

	case "run":
		if len(args) < 2 {
			fatalf("run needs a workload letter A..G")
		}
		w, ok := ycsb.ByName(args[1])
		if !ok {
			fatalf("unknown workload %q", args[1])
		}
		runner := ycsb.NewRunner(w, *records, *seed)
		val := make([]byte, *value)
		hist := histogram.New()
		start := time.Now()
		misses := 0
		for i := 0; i < *ops; i++ {
			op := runner.Next()
			t0 := time.Now()
			switch op.Type {
			case ycsb.OpRead:
				if _, err := db.Get(op.Key); err == iamdb.ErrNotFound {
					misses++
				} else if err != nil {
					fatalf("get: %v", err)
				}
			case ycsb.OpUpdate, ycsb.OpInsert:
				if err := db.Put(op.Key, val); err != nil {
					fatalf("put: %v", err)
				}
			case ycsb.OpRMW:
				if _, err := db.Get(op.Key); err != nil && err != iamdb.ErrNotFound {
					fatalf("get: %v", err)
				}
				if err := db.Put(op.Key, val); err != nil {
					fatalf("put: %v", err)
				}
			case ycsb.OpScan:
				it := db.NewIterator()
				it.Seek(op.Key)
				for n := 0; it.Valid() && n < op.ScanLen; n++ {
					it.Next()
				}
				if err := errors.Join(it.Err(), it.Close()); err != nil {
					fatalf("scan: %v", err)
				}
			}
			hist.Record(time.Since(t0))
		}
		elapsed := time.Since(start)
		fmt.Printf("workload %s: %d ops in %v (%.0f ops/s), %d read misses\n",
			w.Name, *ops, elapsed.Round(time.Millisecond),
			float64(*ops)/elapsed.Seconds(), misses)
		fmt.Printf("latency: %v\n", hist)

	case "compact":
		start := time.Now()
		if err := db.CompactAll(); err != nil {
			fatalf("compact: %v", err)
		}
		fmt.Printf("tuning phase finished in %v\n", time.Since(start).Round(time.Millisecond))

	default:
		fatalf("unknown command %q", args[0])
	}
	if err := db.Close(); err != nil {
		fatalf("close: %v", err)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(1)
}
