//go:build race

package serve

// raceEnabled reports a -race build, whose allocation counts run higher:
// its sync.Pool drops a quarter of what is put back.
const raceEnabled = true
