//go:build race

package table

// raceEnabled says the race detector is on: sync.Pool then drops a
// share of what is put back, so the allocation gate that counts on
// pooled writers relaxes.
const raceEnabled = true
