//go:build !race

package fleet

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
