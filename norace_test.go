//go:build !race

package yat

// raceEnabled reports a -race build, whose allocation counts run higher.
const raceEnabled = false
