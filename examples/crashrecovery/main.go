// Crash recovery: IamDB is a persistent, crash-recovery library —
// every write lands in the write-ahead log before the memtable, and a
// restart replays the log's intact prefix.  This example simulates a
// crash by abandoning a DB without flushing, corrupting the live log's
// tail, and reopening.
//
//	go run ./examples/crashrecovery
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"iamdb"
)

func main() {
	dir, err := os.MkdirTemp("", "iamdb-crash")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Phase 1: write, then "crash" (close without compacting; the
	// memtable's contents exist only in the WAL).
	db, err := iamdb.Open(dir, &iamdb.Options{Engine: iamdb.IAM})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("order/%06d", i)),
			[]byte(fmt.Sprintf(`{"amount": %d}`, i*10))); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote 1000 orders, then 'crashed'")

	// Phase 2: tear the live WAL's tail, as a power cut mid-write
	// would.  The CRC-protected log drops only the torn record.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			p := filepath.Join(dir, e.Name())
			if st, err := os.Stat(p); err == nil && st.Size() > 64 {
				os.Truncate(p, st.Size()-13)
				fmt.Printf("tore %d bytes off %s\n", 13, e.Name())
			}
		}
	}

	// Phase 3: reopen; recovery replays the intact WAL prefix.
	db2, err := iamdb.Open(dir, &iamdb.Options{Engine: iamdb.IAM})
	if err != nil {
		log.Fatal(err)
	}

	survived := 0
	it := db2.NewIterator()
	for it.Seek([]byte("order/")); it.Valid(); it.Next() {
		survived++
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d/1000 orders (the torn tail may cost the last record)\n", survived)
	if survived < 999 {
		log.Fatalf("recovery lost too much: %d", survived)
	}
	v, err := db2.Get([]byte("order/000500"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spot check order/000500 = %s\n", v)
	if err := db2.Close(); err != nil {
		log.Fatal(err)
	}
}
