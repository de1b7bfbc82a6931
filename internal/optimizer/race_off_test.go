//go:build !race

package optimizer

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
