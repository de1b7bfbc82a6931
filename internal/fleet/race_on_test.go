//go:build race

package fleet

// raceEnabled reports that this binary was built with -race. The race
// detector adds bookkeeping allocations, so allocation-budget tests must
// skip under it.
const raceEnabled = true
