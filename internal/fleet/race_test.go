//go:build race

package fleet

// raceEnabled reports a -race build. The race detector drops sync.Pool
// items at random, so allocation counts are not stable under it.
const raceEnabled = true
