//go:build race

package qsim

// raceEnabled reports that this binary was built with -race. The race
// runtime instruments every allocation, so the AllocsPerRun search budget is
// asserted only in non-race builds.
const raceEnabled = true
