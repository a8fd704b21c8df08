//go:build !race

package tableset

const raceEnabled = false
