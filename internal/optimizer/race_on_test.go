//go:build race

package optimizer

// raceEnabled reports that this binary was built with -race. sync.Pool
// deliberately drops items at random under the race detector, so
// allocation-budget tests that rely on pool hits must skip.
const raceEnabled = true
