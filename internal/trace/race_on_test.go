//go:build race

package trace

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = true
