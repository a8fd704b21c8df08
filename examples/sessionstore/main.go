// Session store: the update-heavy workload class the paper's intro
// motivates (on-line services writing at high rates).  Sessions are
// keyed "sess/<user>/<session>", constantly updated, expired with
// deletes, and audited with prefix scans.
//
// The example runs the same workload against the IAM engine and the
// LevelDB-style baseline, then compares write amplification — the
// paper's headline claim is that IAM cuts it roughly in half.
//
//	go run ./examples/sessionstore
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
	users          = 500
	updatesPerUser = 40
)

func runWorkload(engine iamdb.EngineKind) (iamdb.Metrics, int) {
	dir, err := os.MkdirTemp("", "iamdb-sessions")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := iamdb.Open(dir, &iamdb.Options{
		Engine: engine,
		// Scaled down so compaction behaviour shows with a small run;
		// the memory budget is below the dataset so IAM actually
		// merges at the lower levels instead of degenerating to LSA.
		MemtableSize: 32 * 1024,
		CacheSize:    256 * 1024,
		MemBudget:    64 * 1024,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	sessKey := func(user, sess int) []byte {
		return []byte(fmt.Sprintf("sess/u%04d/s%04d", user, sess))
	}

	// Churn: create, touch and expire sessions.
	for round := 0; round < updatesPerUser; round++ {
		for user := 0; user < users; user++ {
			sess := rng.Intn(4)
			payload := fmt.Sprintf(`{"user":%d,"seen":%d,"data":%q}`,
				user, round, randToken(rng))
			if err := db.Put(sessKey(user, sess), []byte(payload)); err != nil {
				log.Fatal(err)
			}
			// Occasionally expire one of the user's sessions.
			if rng.Intn(10) == 0 {
				if err := db.Delete(sessKey(user, rng.Intn(4))); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// Audit scan: all live sessions of one user.
	it := db.NewIterator()
	live := 0
	prefix := []byte("sess/u0042/")
	for it.Seek(prefix); it.Valid(); it.Next() {
		if string(it.Key()[:len(prefix)]) != string(prefix) {
			break
		}
		live++
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		log.Fatal(err)
	}
	m := db.Metrics()
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	return m, live
}

func randToken(rng *rand.Rand) string {
	b := make([]byte, 48)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func main() {
	fmt.Printf("session churn: %d users x %d rounds\n\n", users, updatesPerUser)
	for _, e := range []iamdb.EngineKind{iamdb.IAM, iamdb.LSA, iamdb.LevelDB} {
		m, live := runWorkload(e)
		fmt.Printf("%-8s write-amp=%.2f  space=%.1fKiB  live-sessions(u0042)=%d\n",
			e, m.WriteAmplification(), float64(m.SpaceUsed)/1024, live)
	}
	fmt.Println("\nexpect: LSA lowest write-amp but most space;")
	fmt.Println("        IAM near-LSA write-amp at near-LSM space.")
}
