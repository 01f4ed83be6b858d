//go:build !race

package tcp

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
