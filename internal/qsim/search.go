package qsim

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"deepbat/internal/lambda"
	"deepbat/internal/stats"
	"deepbat/internal/sweep"
)

// GroundTruthBest searches every configuration in the grid and returns the
// cheapest one whose pct-percentile latency meets the SLO, together with its
// result. If no configuration is feasible it returns the one with the lowest
// tail latency. This is the paper's "ground truth" oracle.
//
// The search is exact but does not simulate the grid: without platform state
// a config's cost and latencies are a function of the (B, T) batch partition
// and a per-memory table, so it scores configs (searchByScore) and Runs only
// the winner. Options that make timing depend on platform state, or that
// watch every run, keep the per-config Run search (searchByRun).
func (s *Simulator) GroundTruthBest(arrivals []float64, grid lambda.Grid, slo, pct float64) (lambda.Config, *Result, error) {
	if len(arrivals) == 0 {
		return lambda.Config{}, nil, ErrNoArrivals
	}
	configs := grid.Configs()
	if len(configs) == 0 {
		return lambda.Config{}, nil, errors.New("qsim: empty search grid")
	}
	if s.stateful() {
		best, res, err := s.searchByRun(arrivals, configs, slo, pct)
		if err != nil {
			return lambda.Config{}, nil, err
		}
		return configs[best], res, nil
	}
	best, err := s.searchByScore(arrivals, grid, configs, slo, pct)
	if err != nil {
		return lambda.Config{}, nil, err
	}
	res, err := s.Run(arrivals, configs[best])
	if err != nil {
		return lambda.Config{}, nil, err
	}
	return configs[best], res, nil
}

// stateful reports whether platform state (the warm pool, concurrency slots,
// the fault schedule's invocation counter) feeds back into timing, or a sink
// observes every run — the cases only a full Run per config can score.
func (s *Simulator) stateful() bool {
	o := &s.Opts
	return o.EnableColdStarts || o.MaxConcurrency > 0 || (o.Fault != nil && o.Fault.Active()) ||
		o.Obs != nil || o.Recorder != nil
}

// searchByRun scores every config with a full Run, serially, and keeps every
// Result: the one path for stateful options, and the reference the scoring
// search is tested against. The choice is the first strictly-lowest cost per
// request among tails within the SLO, in grid order.
func (s *Simulator) searchByRun(arrivals []float64, configs []lambda.Config, slo, pct float64) (int, *Result, error) {
	all := make([]*Result, len(configs))
	tail := make([]float64, len(configs))
	best := -1
	for i, cfg := range configs {
		res, err := s.Run(arrivals, cfg)
		if err != nil {
			return 0, nil, err
		}
		all[i], tail[i] = res, res.LatencyPercentile(pct)
		if tail[i] > slo {
			continue
		}
		if best < 0 || res.CostPerRequest() < all[best].CostPerRequest() {
			best = i
		}
	}
	if best < 0 {
		best = lowestTail(tail)
	}
	return best, all[best], nil
}

// lowestTail is the infeasible-everywhere fallback: the config with the
// lowest tail. Ties are real (every B = 1 config is the same run at any T)
// and sort.Slice is not stable, so the pick is defined as whatever this sort
// over grid-ordered tails puts first.
func lowestTail(tail []float64) int {
	order := make([]int, len(tail))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tail[order[a]] < tail[order[b]] })
	return order[0]
}

// searchByScore returns the grid index searchByRun would choose without
// materialising any Result. Costs need only batch sizes, so they come first:
// each (B, T) partition is formed once, fanned out across workers, and costs
// every memory size from a per-search table. Configs are then visited
// cheapest first (grid order among equals) and the first tail within the SLO
// wins — the same config as scanning all of them, for a handful of tails
// instead of one per config. The walk stops at its first hit, so it is
// serial. Nothing is carried from one search to the next.
func (s *Simulator) searchByScore(arrivals []float64, grid lambda.Grid, configs []lambda.Config, slo, pct float64) (int, error) {
	for _, cfg := range configs {
		if !cfg.Valid() {
			return 0, errors.New("qsim: invalid configuration " + cfg.String())
		}
	}
	n := len(arrivals)
	maxSize := 1
	for _, b := range grid.Batches {
		maxSize = max(maxSize, min(b, n))
	}
	// Filled before the fan-out, so workers only read the tables.
	tabs := make([]sizeTable, len(grid.Memories))
	for mi, m := range grid.Memories {
		tabs[mi] = newSizeTable(maxSize)
		for size := 1; size <= maxSize; size++ {
			tabs[mi].at(s, m, size)
		}
	}

	// One cell per worker, striding over the partitions, so each worker sums
	// into its own totals: per-config accumulators in the shared cost slice
	// would put neighbouring partitions' hot words on one cache line.
	nT := len(grid.TimeoutsS)
	parts := len(grid.Batches) * nT
	cost := make([]float64, len(configs))
	w := sweep.Options{Workers: s.Opts.Workers}.WorkersFor(parts)
	err := sweep.Run(sweep.Options{Workers: w}, w, func(c *sweep.Cell) error {
		totals := make([]float64, len(tabs))
		for pi := c.Index; pi < parts; pi += w {
			totalCosts(arrivals, grid.Batches[pi/nT], grid.TimeoutsS[pi%nT], tabs, totals)
			for mi, total := range totals {
				// Grid.Configs order: memory, batch, timeout.
				cost[mi*parts+pi] = total / float64(n)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	order := make([]int, len(configs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[a], cost[b]) })
	lat := make([]float64, n)
	tail := make([]float64, len(configs))
	for _, i := range order {
		cfg := configs[i]
		latencies(arrivals, cfg.BatchSize, cfg.TimeoutS, tabs[i/parts].svc, lat)
		tail[i], _ = stats.PercentileSelect(lat, pct) // lat is non-empty
		// searchByRun's test, NaN included.
		if !(tail[i] > slo) {
			return i, nil
		}
	}
	return lowestTail(tail), nil
}

// totalCosts forms the (batchSize, timeoutS) partition of arrivals and sums
// each memory size's invocation costs over it into totals, in dispatch order
// like Run's TotalCost.
func totalCosts(arrivals []float64, batchSize int, timeoutS float64, tabs []sizeTable, totals []float64) {
	clear(totals)
	for i := 0; i < len(arrivals); {
		j, _ := formBatch(arrivals, i, batchSize, timeoutS)
		for mi := range totals {
			totals[mi] += tabs[mi].cost[j-i]
		}
		i = j
	}
}

// latencies writes every request's latency under (batchSize, timeoutS) into
// lat, svc being the memory size's service time by batch size: Run's float
// operations in Run's order, minus the bookkeeping.
func latencies(arrivals []float64, batchSize int, timeoutS float64, svc, lat []float64) {
	for i := 0; i < len(arrivals); {
		j, dispatch := formBatch(arrivals, i, batchSize, timeoutS)
		s := svc[j-i]
		for k := i; k < j; k++ {
			lat[k] = dispatch - arrivals[k] + s
		}
		i = j
	}
}
