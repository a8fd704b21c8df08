// Time-series ingest: append-mostly sequential writes — the pattern
// where LSA/IAM's metadata-only move-down shines (Sec. 4.2.1: with
// sequential writes every record hits disk exactly once).  Metrics
// samples are keyed "m/<metric>/<timestamp>", ingested in time order,
// then queried with time-window scans.
//
//	go run ./examples/timeseries
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"

	"iamdb"
)

const (
	metrics = 4
	samples = 20000
)

func key(metric, ts int) []byte {
	return []byte(fmt.Sprintf("m/%02d/%012d", metric, ts))
}

func main() {
	dir, err := os.MkdirTemp("", "iamdb-timeseries")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := iamdb.Open(dir, &iamdb.Options{
		Engine:       iamdb.IAM,
		MemtableSize: 64 * 1024,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest in timestamp order, interleaved across metrics.
	rng := rand.New(rand.NewSource(1))
	for ts := 0; ts < samples; ts++ {
		m := ts % metrics
		val := fmt.Sprintf("%.4f", 20+5*rng.Float64())
		if err := db.Put(key(m, ts), []byte(val)); err != nil {
			log.Fatal(err)
		}
	}

	// Window query: metric 2, a 200-tick slice.
	it := db.NewIterator()
	lo, hi := 10000, 10200
	count, first, last := 0, "", ""
	for it.Seek(key(2, lo)); it.Valid(); it.Next() {
		k := string(it.Key())
		if k >= string(key(2, hi)) {
			break
		}
		if count == 0 {
			first = k
		}
		last = k
		count++
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window scan m/02 [%d,%d): %d samples (%s .. %s)\n",
		lo, hi, count, first, last)

	// Sequential ingest should be rewrite-free: write amplification of
	// the tree stays around 1 and nodes move down by metadata only.
	m := db.Metrics()
	fmt.Printf("ingested %d samples, write-amp %.2f (sequential loads are rewrite-free)\n",
		samples, m.WriteAmplification())
	fmt.Printf("metadata-only moves: %d, merges: %d\n", m.Engine.Moves, m.Engine.Merges)
	for _, l := range m.Levels {
		fmt.Printf("  %s\n", l)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
}
