//go:build !race

package qsim

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
