// Amplification explorer: load the same random workload into all four
// engines and compare measured write amplification, space usage and
// tree shape against the paper's closed-form model (Sec. 5.3) — a
// miniature of Table 4 runnable in seconds.
//
//	go run ./examples/ampexplorer
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"iamdb"
)

const records = 24000

func load(engine iamdb.EngineKind) iamdb.Metrics {
	dir, err := os.MkdirTemp("", "iamdb-amp")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := iamdb.Open(dir, &iamdb.Options{
		Engine:       engine,
		MemtableSize: 32 * 1024,
		CacheSize:    2 << 20,
		MemBudget:    1 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < records; i++ {
		k := fmt.Sprintf("user%016x", rng.Uint64())
		if err := db.Put([]byte(k), val); err != nil {
			log.Fatal(err)
		}
	}
	m := db.Metrics()
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	return m
}

func main() {
	fmt.Printf("hash-loading %d records into each engine...\n\n", records)
	fmt.Printf("%-8s  %-9s  %-9s  %s\n", "engine", "write-amp", "space-MiB", "levels (nodes/seqs)")
	for _, e := range []iamdb.EngineKind{iamdb.LevelDB, iamdb.RocksDB, iamdb.LSA, iamdb.IAM} {
		m := load(e)
		shape := ""
		for _, l := range m.Levels {
			if l.Nodes == 0 {
				continue
			}
			shape += fmt.Sprintf("L%d:%d/%d ", l.Level, l.Nodes, l.Seqs)
		}
		fmt.Printf("%-8s  %-9.2f  %-9.1f  %s\n",
			e, m.WriteAmplification(), float64(m.SpaceUsed)/(1<<20), shape)
	}

	fmt.Println("\ntheory (Sec. 5.3, t=10): Wlsa = Wsp + n;")
	fmt.Println("Wiam adds t/2k at the mixed level and t/2 per merging level;")
	fmt.Println("leveled LSM pays about (t+1) per level transition.")
	fmt.Println("expect measured ordering LSA < IAM < LevelDB <= RocksDB.")
}
