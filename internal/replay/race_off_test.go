//go:build !race

package replay

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
