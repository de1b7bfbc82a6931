package qsim

import (
	"math/rand"
	"reflect"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
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

// checkAgainstExhaustive asserts GroundTruthBest picks the config and returns
// the Result of the per-config-Run search, at Workers 1 and 4.
func checkAgainstExhaustive(t *testing.T, base *Simulator, ts []float64, grid lambda.Grid, slo, pct float64) {
	t.Helper()
	configs := grid.Configs()
	ref := *base
	ref.Opts.Workers = 1
	want, wantRes, err := ref.searchByRun(ts, configs, slo, pct)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		s := *base
		s.Opts.Workers = w
		got, gotRes, err := s.GroundTruthBest(ts, grid, slo, pct)
		if err != nil {
			t.Fatal(err)
		}
		if got != configs[want] {
			t.Fatalf("n=%d slo=%v pct=%v workers=%d: chose %v, exhaustive search chose %v (grid index %d)",
				len(ts), slo, pct, w, got, configs[want], want)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
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
// an 8x larger grid must fit the same budget.
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
		avg := testing.AllocsPerRun(5, func() {
			if _, _, err := s.GroundTruthBest(ts, grid, 0.1, 95); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 40 {
			t.Fatalf("search over %d configs allocates %.0f objects; budget is 40 at any grid size", grid.Size(), avg)
		}
	}
}
