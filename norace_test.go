//go:build !race

package helixpipe

// raceEnabled reports a build with the race detector (race_test.go).
const raceEnabled = false
