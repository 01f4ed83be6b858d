//go:build !race

package euler

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
