//go:build !race

package iamdb

const raceEnabled = false
