// Quickstart: open an IamDB database, write, read, scan, snapshot.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"iamdb"
)

func main() {
	dir, err := os.MkdirTemp("", "iamdb-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open with the IAM engine (the paper's hybrid append/merge tree).
	// Engine: iamdb.LSA, iamdb.LevelDB and iamdb.RocksDB select the
	// other trees behind the same API.
	db, err := iamdb.Open(dir, &iamdb.Options{Engine: iamdb.IAM})
	if err != nil {
		log.Fatal(err)
	}

	// Writes: single keys and atomic batches.
	if err := db.Put([]byte("user:alice"), []byte("score=42")); err != nil {
		log.Fatal(err)
	}
	var batch iamdb.Batch
	batch.Put([]byte("user:bob"), []byte("score=17"))
	batch.Put([]byte("user:carol"), []byte("score=93"))
	batch.Delete([]byte("user:mallory"))
	if err := db.Write(&batch); err != nil {
		log.Fatal(err)
	}

	// Point read.
	v, err := db.Get([]byte("user:alice"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice -> %s\n", v)

	// Snapshot: a consistent view that later writes don't disturb.
	snap := db.GetSnapshot()
	db.Put([]byte("user:alice"), []byte("score=1000"))
	old, _ := snap.Get([]byte("user:alice"))
	now, _ := db.Get([]byte("user:alice"))
	fmt.Printf("snapshot sees %s, current is %s\n", old, now)
	snap.Release()

	// Range scan in key order.
	fmt.Println("all users:")
	it := db.NewIterator()
	for it.Seek([]byte("user:")); it.Valid(); it.Next() {
		fmt.Printf("  %s = %s\n", it.Key(), it.Value())
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		log.Fatal(err)
	}

	// Engine metrics: write amplification, tree shape.
	m := db.Metrics()
	fmt.Printf("write amplification so far: %.2f\n", m.WriteAmplification())
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
}
