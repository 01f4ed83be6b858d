//go:build race

package euler

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random share of Puts, so exact allocation counts of pooled paths only
// hold without it.
const raceEnabled = true
