//go:build race

package experiments

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = true
