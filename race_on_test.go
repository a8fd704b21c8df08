//go:build race

package iamdb

// raceEnabled says the race detector is on: sync.Pool then drops a
// share of what is put back, so the allocation gates that count on
// pooled storage skip.
const raceEnabled = true
