// Command iamdb is a small CLI over the storage library: put, get,
// delete, scan, load and stats against a database directory on the
// real filesystem.
//
// Usage:
//
//	iamdb -db ./data [-engine IAM|LSA|LevelDB|RocksDB] [-shards N] <command> [args]
//
// Commands:
//
//	put <key> <value>        store a key
//	get <key>                print a value
//	del <key>                delete a key
//	scan <start> [limit]     print up to limit records from start
//	rscan <start> [limit]    print up to limit records backward from start
//	load <n> [valueSize]     insert n hash-ordered records
//	stats                    print the per-level metrics report
//	statsjson                print the metrics snapshot as JSON
//	compact                  run the tuning phase to completion
//	scrub                    verify every durable byte (table CRCs, WAL
//	                         records, structure); exit nonzero and list
//	                         findings on corruption
//	debug [load-n]           serve live introspection on -addr until
//	                         interrupted: /metrics, /timeline, /traces,
//	                         /levels, /scrub (POST runs a pass and
//	                         answers with its report), /debug/pprof;
//	                         the optional argument keeps a background
//	                         load running so there is something to watch
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	"iamdb"
	"iamdb/internal/ycsb"
)

func main() {
	var (
		dir    = flag.String("db", "./iamdb-data", "database directory")
		engine = flag.String("engine", "IAM", "IAM | LSA | LevelDB | RocksDB")
		ctKB   = flag.Int64("ct", 4096, "memtable/node capacity in KiB")
		addr   = flag.String("addr", "127.0.0.1:6060", "debug server address (debug command)")
		shards = flag.Int("shards", 0, "range-shard the keyspace across N independent trees (recorded at creation; reopening adopts the recorded layout)")
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

	opt := &iamdb.Options{
		Engine:       kind,
		MemtableSize: *ctKB * 1024,
		Shards:       *shards,
	}
	if args[0] == "debug" {
		// The debug server wants the full observability stack: a span
		// recorder and a timeline sampler (attached below), all on one
		// shared wall clock so /traces timestamps line up with the
		// latency histograms.
		clk := iamdb.NewWallClock()
		opt.Clock = clk
		opt.Trace = iamdb.NewTraceRecorder(0, clk)
	}
	db, err := iamdb.Open(*dir, opt)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer db.Close()

	switch args[0] {
	case "put":
		need(args, 3)
		if err := db.Put([]byte(args[1]), []byte(args[2])); err != nil {
			fatalf("put: %v", err)
		}
	case "get":
		need(args, 2)
		v, err := db.Get([]byte(args[1]))
		if err == iamdb.ErrNotFound {
			fatalf("not found")
		}
		if err != nil {
			fatalf("get: %v", err)
		}
		fmt.Printf("%s\n", v)
	case "del":
		need(args, 2)
		if err := db.Delete([]byte(args[1])); err != nil {
			fatalf("del: %v", err)
		}
	case "scan":
		need(args, 2)
		limit := 20
		if len(args) > 2 {
			limit, _ = strconv.Atoi(args[2])
		}
		it := db.NewIterator()
		defer it.Close()
		n := 0
		for it.Seek([]byte(args[1])); it.Valid() && n < limit; it.Next() {
			fmt.Printf("%s = %s\n", it.Key(), it.Value())
			n++
		}
		if err := it.Err(); err != nil {
			fatalf("scan: %v", err)
		}
	case "rscan":
		need(args, 2)
		limit := 20
		if len(args) > 2 {
			limit, _ = strconv.Atoi(args[2])
		}
		it := db.NewIterator()
		defer it.Close()
		n := 0
		for it.SeekForPrev([]byte(args[1])); it.Valid() && n < limit; it.Prev() {
			fmt.Printf("%s = %s\n", it.Key(), it.Value())
			n++
		}
		if err := it.Err(); err != nil {
			fatalf("rscan: %v", err)
		}
	case "load":
		need(args, 2)
		n, err := strconv.Atoi(args[1])
		if err != nil {
			fatalf("load: bad count %q", args[1])
		}
		valueSize := 1024
		if len(args) > 2 {
			valueSize, _ = strconv.Atoi(args[2])
		}
		val := make([]byte, valueSize)
		for i := range val {
			val[i] = byte('a' + i%26)
		}
		for i := 0; i < n; i++ {
			if err := db.Put(ycsb.KeyName(uint64(i)), val); err != nil {
				fatalf("load: %v", err)
			}
		}
		fmt.Printf("loaded %d records\n", n)
	case "stats":
		m := db.Metrics()
		fmt.Printf("engine: %s\n", *engine)
		fmt.Print(m.String())
		if mm, kk := db.MixedLevel(); mm > 0 {
			fmt.Printf("Mixed level m=%d k=%d\n", mm, kk)
		}
		// A sharded store also renders every shard's own report under
		// the aggregate; single-shard output stays exactly as above.
		if n := db.NumShards(); n > 1 {
			for i := 0; i < n; i++ {
				lo, hi := db.ShardRange(i)
				fmt.Printf("\n-- shard %03d [%s, %s) --\n", i, bound(lo, "-inf"), bound(hi, "+inf"))
				fmt.Print(db.ShardMetrics(i).String())
			}
		}
	case "statsjson":
		data, err := json.MarshalIndent(db.Metrics(), "", "  ")
		if err != nil {
			fatalf("statsjson: %v", err)
		}
		fmt.Printf("%s\n", data)
	case "compact":
		if err := db.CompactAll(); err != nil {
			fatalf("compact: %v", err)
		}
		fmt.Println("compacted")
	case "scrub":
		rep, err := db.Scrub()
		fmt.Println(rep.String())
		for _, c := range rep.Corruptions {
			fmt.Fprintf(os.Stderr, "  %v\n", c)
		}
		if err != nil {
			fatalf("scrub: %v", err)
		}
	case "debug":
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatalf("debug: %v", err)
		}
		sampler := db.NewSampler(time.Second, 0)
		srv := &http.Server{Handler: db.DebugHandler(sampler)}
		fmt.Printf("debug server on http://%s/ (ctrl-c to stop)\n", ln.Addr())
		var wg sync.WaitGroup
		quit := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			}
		}()
		// Poll every second: edges crossed between two polls all read
		// the later poll's counters, so without the ticker a minute
		// between /timeline requests would show as one busy window
		// followed by zeros.
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-quit:
					return
				case <-t.C:
					sampler.Poll()
				}
			}
		}()
		if len(args) > 1 {
			// Optional background load so the timeline and traces move.
			n, err := strconv.Atoi(args[1])
			if err != nil {
				fatalf("debug: bad load count %q", args[1])
			}
			val := make([]byte, 1024)
			for i := range val {
				val[i] = byte('a' + i%26)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					select {
					case <-quit:
						return
					default:
					}
					if err := db.Put(ycsb.KeyName(uint64(i)), val); err != nil {
						fmt.Fprintf(os.Stderr, "load: %v\n", err)
						return
					}
				}
				fmt.Printf("background load of %d records done\n", n)
			}()
		}
		<-stop
		close(quit)
		// Shutdown lets an in-flight request (a /scrub pass) finish
		// before the deferred db.Close.
		_ = srv.Shutdown(context.Background())
		wg.Wait()
		fmt.Println("stopping")
	default:
		fatalf("unknown command %q", args[0])
	}
}

// bound renders a shard range endpoint.
func bound(b []byte, unbounded string) string {
	if b == nil {
		return unbounded
	}
	return fmt.Sprintf("%q", b)
}

func need(args []string, n int) {
	if len(args) < n {
		fatalf("missing arguments")
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(1)
}
