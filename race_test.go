//go:build race

package helixpipe

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops pooled items at random, so pooled buffers are reallocated at random.
const raceEnabled = true
