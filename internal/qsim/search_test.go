package qsim

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/stats"
)

// raggedGrid is a non-default grid with unsorted axes, a repeated batch size
// (so distinct grid indices tie on every score) and a zero timeout.
func raggedGrid() lambda.Grid {
	return lambda.Grid{
		Memories:  []float64{3008, 512, 10240, 1024},
		Batches:   []int{8, 1, 3, 8, 64},
		TimeoutsS: []float64{0.2, 0, 0.03},
	}
}

// searchArrivals draws n nondecreasing timestamps with runs of simultaneous
// arrivals mixed in.
func searchArrivals(rng *rand.Rand, n int) []float64 {
	rate := 5 + 400*rng.Float64()
	ts := make([]float64, n)
	at := 0.0
	for i := range ts {
		if rng.Intn(5) > 0 {
			at += rng.ExpFloat64() / rate
		}
		ts[i] = at
	}
	return ts
}

// sameScore reports whether two scores are equal bit for bit.
func sameScore(a, b Score) bool {
	return math.Float64bits(a.TotalCost) == math.Float64bits(b.TotalCost) &&
		math.Float64bits(a.Tail) == math.Float64bits(b.Tail) && a.Feasible == b.Feasible
}

// checkAgainstExhaustive asserts GroundTruthBest picks the config of the
// per-config-Run search, at Workers 1 and 4, with a score equal bit for bit
// to the reference Result's TotalCost and LatencyPercentile, and that a Run
// of the chosen config gives the reference Result.
func checkAgainstExhaustive(t *testing.T, base *Simulator, ts []float64, grid lambda.Grid, slo, pct float64) {
	t.Helper()
	configs := grid.Configs()
	ref := *base
	ref.Opts.Workers = 1
	want, wantRes, err := ref.searchByRun(ts, configs, slo, pct)
	if err != nil {
		t.Fatal(err)
	}
	wantTail := wantRes.LatencyPercentile(pct)
	wantScore := Score{TotalCost: wantRes.TotalCost, Tail: wantTail, Feasible: !(wantTail > slo)}
	for _, w := range []int{1, 4} {
		s := *base
		s.Opts.Workers = w
		got, score, err := s.GroundTruthBest(ts, grid, slo, pct)
		if err != nil {
			t.Fatal(err)
		}
		if got != configs[want] {
			t.Fatalf("n=%d slo=%v pct=%v workers=%d: chose %v, exhaustive search chose %v (grid index %d)",
				len(ts), slo, pct, w, got, configs[want], want)
		}
		if !sameScore(score, wantScore) {
			t.Fatalf("n=%d slo=%v pct=%v workers=%d: score %+v, exhaustive search's Result gives %+v",
				len(ts), slo, pct, w, score, wantScore)
		}
		res, err := s.Run(ts, got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("n=%d slo=%v pct=%v workers=%d: Result differs from the exhaustive search's", len(ts), slo, pct, w)
		}
	}
}

// TestGroundTruthBestMatchesExhaustive is the scoring search's differential
// test: over seed-pinned random traces (n = 1 and simultaneous arrivals
// included), SLOs from infeasible-everywhere through exact tail boundaries to
// trivially feasible, and every planning percentile, it must agree with the
// search that Runs every config — config equal, Result DeepEqual.
func TestGroundTruthBestMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sizes := []int{1, 2, 3, 7, 40, 150, 400}
	pcts := []float64{50, 95, 99, 100}
	for trial := 0; trial < 60; trial++ {
		ts := searchArrivals(rng, sizes[trial%len(sizes)])
		grid := lambda.DefaultGrid()
		if trial%2 == 1 {
			grid = raggedGrid()
		}
		pct := pcts[rng.Intn(len(pcts))]
		s := sim()
		// Reference tails give SLOs that sit on, between and outside them.
		var tails []float64
		for _, c := range grid.Configs() {
			res, err := s.Run(ts, c)
			if err != nil {
				t.Fatal(err)
			}
			tails = append(tails, res.LatencyPercentile(pct))
		}
		at := tails[rng.Intn(len(tails))]
		for _, slo := range []float64{1e-9, at, at * (0.5 + rng.Float64()), 1e9} {
			checkAgainstExhaustive(t, s, ts, grid, slo, pct)
		}
	}
}

// TestGroundTruthBestStatefulRoutesThroughRun pins that options under which
// platform state feeds back into timing (or a sink watches every run) are
// scored by full Runs: the answer equals the per-config-Run search under the
// same options, and an Obs sink sees every grid config.
func TestGroundTruthBestStatefulRoutesThroughRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ts := searchArrivals(rng, 300)
	cases := map[string]func(*Simulator){
		"cold starts": func(s *Simulator) { s.Opts.EnableColdStarts, s.Opts.KeepAlive = true, 0.05 },
		"concurrency": func(s *Simulator) { s.Opts.MaxConcurrency = 1 },
		"faults": func(s *Simulator) {
			s.Opts.Fault = &fault.Plan{Seed: 5, ErrorRate: 0.2, StragglerRate: 0.3, ColdSpikeRate: 0.1}
			s.Opts.Retry = fault.Retry{Max: 2, BaseS: 0.001, CapS: 0.01}
		},
	}
	for name, set := range cases {
		s := sim()
		set(s)
		if !s.stateful() {
			t.Fatalf("%s: not routed through Run", name)
		}
		for _, slo := range []float64{1e-9, 0.15, 1e9} {
			checkAgainstExhaustive(t, s, ts, raggedGrid(), slo, 95)
		}
	}
	inactive := sim()
	inactive.Opts.Fault = &fault.Plan{Seed: 5}
	if inactive.stateful() {
		t.Fatal("an inactive fault plan must not force the per-config path")
	}

	s := sim()
	s.Opts.Obs = obs.NewRegistry()
	grid := raggedGrid()
	if _, _, err := s.GroundTruthBest(ts, grid, 0.15, 95); err != nil {
		t.Fatal(err)
	}
	c, err := s.Opts.Obs.Counter("qsim_requests_total", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ts) * grid.Size(); int(c.Value()) != want {
		t.Fatalf("Obs sink saw %v requests, want %d (one Run per grid config)", c.Value(), want)
	}
}

func TestGroundTruthBestRejectsBadGrids(t *testing.T) {
	ts := []float64{0, 0.01}
	if _, _, err := sim().GroundTruthBest(ts, lambda.Grid{}, 0.1, 95); err == nil {
		t.Fatal("empty grid accepted")
	}
	bad := lambda.DefaultGrid()
	bad.Batches = []int{4, 0}
	if _, _, err := sim().GroundTruthBest(ts, bad, 0.1, 95); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestGroundTruthBestAllocBudget bounds the scoring search's allocations by a
// constant: scratch, tables and scores are per search, never per config, so
// an 8x larger grid must fit the same budget. The search's own count is
// fixed; a garbage collection that lands in a run adds runtime allocations,
// so the budget is checked against the least of three measurements.
func TestGroundTruthBestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race runtime")
	}
	ts := searchArrivals(rand.New(rand.NewSource(20)), 500)
	big := lambda.Grid{}
	for i := 0; i < 12; i++ {
		big.Memories = append(big.Memories, 512+256*float64(i))
		big.Batches = append(big.Batches, 1+3*i)
		big.TimeoutsS = append(big.TimeoutsS, 0.01*float64(1+i))
	}
	for _, grid := range []lambda.Grid{lambda.DefaultGrid(), big} {
		s := sim()
		s.Opts.Workers = 1
		avg := math.Inf(1)
		for range 3 {
			avg = min(avg, testing.AllocsPerRun(5, func() {
				if _, _, err := s.GroundTruthBest(ts, grid, 0.1, 95); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if avg > 10 {
			t.Fatalf("search over %d configs allocates %.0f objects; budget is 10 at any grid size", grid.Size(), avg)
		}
	}
}

// TestScoredCostsMatchRun pins the cost pass: every config's scored total
// equals Run's TotalCost bit for bit, at Workers 1 and 4, for memory axes of
// 1, 6, 8, 9 and 12 sizes (every register-chunk padding), on windows whose
// partitions are deduplicated: batch sizes at or above the longest timeout
// run, T = 0, simultaneous arrivals, all-singleton windows and n = 1.
func TestScoredCostsMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	windows := map[string][]float64{
		"n=1":          {0.5},
		"simultaneous": {0, 0, 0, 0, 0, 0.001, 0.001, 0.3},
		"singletons":   {0, 1, 2, 3, 4},
		"random":       searchArrivals(rng, 300),
		"dense":        searchArrivals(rng, 1000),
	}
	deduped := false
	for _, nM := range []int{1, 6, 8, 9, 12} {
		grid := lambda.Grid{
			Batches:   []int{1, 2, 3, 8, 8, 64, 5000},
			TimeoutsS: []float64{0, 0.005, 0.05, 0.05, 0.5},
		}
		for k := 0; k < nM; k++ {
			grid.Memories = append(grid.Memories, 512+640*float64(k))
		}
		configs := grid.Configs()
		for name, ts := range windows {
			want := make([]float64, len(configs))
			for i, c := range configs {
				res, err := sim().Run(ts, c)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.TotalCost
			}
			for _, w := range []int{1, 4} {
				s := sim()
				s.Opts.Workers = w
				g, err := s.newSearchGrid(ts, grid, configs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range configs {
					if got := g.total(i); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("|M|=%d %s workers=%d %v: total %v, Run's TotalCost %v", nM, name, w, configs[i], got, want[i])
					}
				}
				// Partition pi is (Batches[pi/nT], TimeoutsS[pi%nT]).
				nT := len(grid.TimeoutsS)
				for ti := range grid.TimeoutsS {
					if g.rep[ti] != g.rep[0] {
						t.Fatalf("%s: B = 1 partitions at T index %d and 0 not shared", name, ti)
					}
					if longestRun(g.endsOf(ti)) <= 64 {
						if g.rep[5*nT+ti] != g.rep[6*nT+ti] {
							t.Fatalf("%s: B = 64 and 5000 at T index %d not shared", name, ti)
						}
						deduped = true
					}
				}
			}
		}
	}
	if !deduped {
		t.Fatal("no window's longest run fit B = 64")
	}
}

// TestTailRefutationBoundary puts the SLO on each config's exact tail and
// one ulp either side of it, where a count refutation is closest to being
// wrong: a refuted config's tail must exceed the SLO, and the search must
// choose, and score, what the per-config-Run search does.
func TestTailRefutationBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	refutedBelow := 0 // refutations one ulp under the tail
	grid := raggedGrid()
	configs := grid.Configs()
	for _, n := range []int{1, 2, 3, 40, 400} {
		ts := searchArrivals(rng, n)
		s := sim()
		g, err := s.newSearchGrid(ts, grid, configs)
		if err != nil {
			t.Fatal(err)
		}
		for _, pct := range []float64{0, 50, 95, 99, 100} {
			slos := map[float64]bool{}
			for i, c := range configs {
				res, err := s.Run(ts, c)
				if err != nil {
					t.Fatal(err)
				}
				tail := res.LatencyPercentile(pct)
				for _, slo := range []float64{math.Nextafter(tail, math.Inf(-1)), tail, math.Nextafter(tail, math.Inf(1))} {
					// The search stops counting at PercentileTop; a full
					// count must be as sound.
					for _, need := range []int{stats.PercentileTop(n, pct), n} {
						over, minOver := g.overSLO(i, slo, need)
						if stats.PercentileExceeds(n, over, minOver, pct, slo) {
							if !(tail > slo) {
								t.Fatalf("n=%d pct=%v %v need=%d: refuted at SLO %v, but the tail is %v", n, pct, c, need, slo, tail)
							}
							refutedBelow++
						}
					}
					slos[slo] = true
				}
			}
			for slo := range slos {
				checkAgainstExhaustive(t, s, ts, grid, slo, pct)
			}
		}
	}
	if refutedBelow == 0 {
		t.Fatal("no config was refuted one ulp under its tail")
	}
}

// TestCheapestMatchesStableSort pins the walk's order: popping the heap
// yields the stable sort of the grid indices by cost, ties (and NaNs, which
// cmp.Compare puts first) in grid order.
func TestCheapestMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 2, 7, 216, 1000} {
		cost := make([]float64, n)
		for i := range cost {
			switch rng.Intn(4) {
			case 0:
				cost[i] = float64(rng.Intn(5)) // ties
			case 1:
				cost[i] = math.NaN()
			default:
				cost[i] = rng.Float64()
			}
		}
		want := make([]int, n)
		h := cheapest{cost: cost, heap: make([]int, n)}
		for i := range want {
			want[i], h.heap[i] = i, i
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(cost[a], cost[b]) })
		h.init()
		for k, w := range want {
			if got, ok := h.pop(); !ok || got != w {
				t.Fatalf("n=%d: pop %d = %d (%v), stable sort has %d", n, k, got, ok, w)
			}
		}
		if _, ok := h.pop(); ok {
			t.Fatalf("n=%d: heap not empty after %d pops", n, n)
		}
	}
}
