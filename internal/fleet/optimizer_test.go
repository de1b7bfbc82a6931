package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"deepbat/internal/lambda"
	"deepbat/internal/qsim"
	"deepbat/internal/workload"
)

// propGrid keeps the property sweep's grid searches fast while leaving the
// optimizer real choices on every axis.
var propGrid = lambda.Grid{
	Memories:  []float64{1024, 2048},
	Batches:   []int{1, 4, 8},
	TimeoutsS: []float64{0.05, 0.1},
}

// propPlan generates one random multi-SLO plan and its per-class Poisson
// windows from a pinned seed: 2-5 classes, SLOs drawn from a spread ladder,
// rates 20-100 rps over a 30 s window.
func propPlan(seed int64) (Plan, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	slos := []float64{0.15, 0.3, 0.6, 1.2}
	n := 2 + rng.Intn(4)
	p := Plan{Merge: true}
	windows := make([][]float64, n)
	for i := 0; i < n; i++ {
		p.Classes = append(p.Classes, ClassSpec{
			Name: fmt.Sprintf("c%d", i),
			SLO:  slos[rng.Intn(len(slos))],
		})
		rate := 20 + rng.Float64()*80
		for at := rng.ExpFloat64() / rate; at < 30; at += rng.ExpFloat64() / rate {
			windows[i] = append(windows[i], at)
		}
	}
	return p, windows
}

// TestOptimizeMergeProperty checks the merge pass's two acceptance
// invariants on a seed-pinned corpus of random plans:
//
//  1. SLO safety: every merged (multi-member) group serves at its strictest
//     member's SLO — the group SLO lower-bounds every member's, and
//     re-simulating the chosen config over the merged member windows meets
//     that SLO at p95.
//  2. Cost dominance: a merged group predicts strictly cheaper than the sum
//     of its members' solo groups, and the merged assignment's total never
//     exceeds the per-class-only (merge-off) total.
func TestOptimizeMergeProperty(t *testing.T) {
	oc := OptimizerConfig{Grid: propGrid, Workers: 1}
	mergedAny := false
	for seed := int64(1); seed <= 10; seed++ {
		p, windows := propPlan(seed)
		merged, err := Optimize(p, windows, oc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		splitPlan := p
		splitPlan.Merge = false
		split, err := Optimize(splitPlan, windows, oc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The split run is the per-class-only optimum: one group per class,
		// in class order.
		if len(split.Groups) != len(p.Classes) {
			t.Fatalf("seed %d: split run built %d groups for %d classes", seed, len(split.Groups), len(p.Classes))
		}
		if merged.MergedCostUSD > split.MergedCostUSD {
			t.Errorf("seed %d: merged total %.6g exceeds split total %.6g",
				seed, merged.MergedCostUSD, split.MergedCostUSD)
		}
		if merged.SplitCostUSD < split.MergedCostUSD || split.MergedCostUSD < merged.SplitCostUSD {
			t.Errorf("seed %d: SplitCostUSD %.6g disagrees with the merge-off run %.6g",
				seed, merged.SplitCostUSD, split.MergedCostUSD)
		}
		for gi, g := range merged.Groups {
			if len(g.Classes) < 2 {
				continue
			}
			mergedAny = true
			soloSum := 0.0
			var arrivals []float64
			for _, ci := range g.Classes {
				if p.Classes[ci].SLO < g.SLO {
					t.Errorf("seed %d group %d: SLO %.3g looser than member %q's %.3g",
						seed, gi, g.SLO, p.Classes[ci].Name, p.Classes[ci].SLO)
				}
				soloSum += split.Groups[ci].PredictedCostUSD
				arrivals = mergeSorted(arrivals, windows[ci])
			}
			if g.PredictedCostUSD >= soloSum {
				t.Errorf("seed %d group %d: merged cost %.6g not below solo sum %.6g",
					seed, gi, g.PredictedCostUSD, soloSum)
			}
			// Re-simulate the accepted config over the merged window: the
			// group must meet its SLO at the planning percentile.
			sim := qsim.New(lambda.Profiles[g.Profile], lambda.DefaultPricing())
			res, err := sim.Run(arrivals, g.Config)
			if err != nil {
				t.Fatalf("seed %d group %d: %v", seed, gi, err)
			}
			if p95 := res.LatencyPercentile(95); p95 > g.SLO {
				t.Errorf("seed %d group %d: merged p95 %.4gs violates group SLO %.3gs", seed, gi, p95, g.SLO)
			}
			if !g.Feasible {
				t.Errorf("seed %d group %d: merged group not marked feasible", seed, gi)
			}
		}
	}
	if !mergedAny {
		t.Fatal("property corpus never exercised a merge; grow the corpus")
	}
}

// TestOptimizeDeterministicAcrossWorkers pins the planner's byte-level
// determinism contract: the same plan and windows produce identical
// assignments at any Workers value.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	p, windows := propPlan(3)
	a1, err := Optimize(p, windows, OptimizerConfig{Grid: propGrid, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a4, err := Optimize(p, windows, OptimizerConfig{Grid: propGrid, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(a1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := json.Marshal(a4)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b4) {
		t.Errorf("assignments differ across Workers:\n1: %s\n4: %s", b1, b4)
	}
}

// TestOptimizeIdleAndInfeasible covers the planner's edge units: an idle
// class (empty window) stays on its own initial-config group at zero cost,
// and idle units never merge.
func TestOptimizeIdleAndInfeasible(t *testing.T) {
	p := Plan{Merge: true, Classes: []ClassSpec{
		{Name: "busy", SLO: 0.3},
		{Name: "idle", SLO: 0.3},
	}}
	rng := rand.New(rand.NewSource(7))
	var w []float64
	for at := rng.ExpFloat64() / 50; at < 10; at += rng.ExpFloat64() / 50 {
		w = append(w, at)
	}
	a, err := Optimize(p, [][]float64{w, nil}, OptimizerConfig{Grid: propGrid, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 2 {
		t.Fatalf("idle class merged: %d groups", len(a.Groups))
	}
	idle := a.Groups[a.ByClass[1]]
	if idle.PredictedCostUSD != 0 || !idle.Feasible {
		t.Errorf("idle group = %+v, want zero cost and feasible", idle)
	}
	if got, want := idle.Config, p.Classes[1].InitialConfig(); got != want {
		t.Errorf("idle group config = %v, want initial %v", got, want)
	}
}

// TestOptimizeWindowCountMismatch pins the argument contract.
func TestOptimizeWindowCountMismatch(t *testing.T) {
	p := Plan{Classes: []ClassSpec{{Name: "a", SLO: 0.1}}}
	if _, err := Optimize(p, nil, OptimizerConfig{Grid: propGrid}); err == nil {
		t.Fatal("want error for missing windows")
	}
}

// TestStaticAssignmentMergeWith verifies static merge_with chains collapse
// into one group serving the strictest member's SLO and config.
func TestStaticAssignmentMergeWith(t *testing.T) {
	p := Plan{Classes: []ClassSpec{
		{Name: "a", SLO: 0.4},
		{Name: "b", SLO: 0.1, MergeWith: "a"},
		{Name: "c", SLO: 0.2},
	}}
	a, err := StaticAssignment(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(a.Groups))
	}
	g := a.Groups[0]
	if len(g.Classes) != 2 || g.SLO != p.Classes[1].SLO {
		t.Errorf("merged static group = %+v, want classes [0 1] at b's SLO", g)
	}
	if a.ByClass[0] != a.ByClass[1] || a.ByClass[2] == a.ByClass[0] {
		t.Errorf("ByClass = %v, want a+b together, c apart", a.ByClass)
	}
}

// exhaustiveBest is the reference grid search: a full Run of every config,
// every Result kept, every tail read off a sorted copy, and the winner's
// score read off its Result.
func exhaustiveBest(sim *qsim.Simulator, arrivals []float64, grid lambda.Grid, slo, pct float64) (lambda.Config, qsim.Score, error) {
	type scored struct {
		cfg  lambda.Config
		res  *qsim.Result
		tail float64
	}
	var all []scored
	for _, cfg := range grid.Configs() {
		res, err := sim.Run(arrivals, cfg)
		if err != nil {
			return lambda.Config{}, qsim.Score{}, err
		}
		all = append(all, scored{cfg, res, res.LatencyPercentile(pct)})
	}
	best := -1
	for i, sc := range all {
		if sc.tail <= slo && (best < 0 || sc.res.CostPerRequest() < all[best].res.CostPerRequest()) {
			best = i
		}
	}
	if best < 0 {
		sort.Slice(all, func(i, j int) bool { return all[i].tail < all[j].tail })
		best = 0
	}
	w := all[best]
	return w.cfg, qsim.Score{TotalCost: w.res.TotalCost, Tail: w.tail, Feasible: w.tail <= slo}, nil
}

// TestOptimizeMatchesExhaustive plans the fleet experiment's matrix ({2, 3}
// classes x SLO spread {1, 4} x merge on/off, over corrburst windows a fifth
// of the experiment's length, plus a base SLO nothing can meet) with the
// scoring search and with the exhaustive reference: the assignments must
// serialise to the same bytes.
func TestOptimizeMatchesExhaustive(t *testing.T) {
	for _, classes := range []int{2, 3} {
		spec := workload.DefaultSpec("corrburst")
		spec.Hours, spec.HourSeconds, spec.Classes = 2, 6, classes
		tr, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		windows := make([][]float64, classes)
		for _, rq := range tr.Reqs {
			windows[rq.Class] = append(windows[rq.Class], rq.AtS)
		}
		for _, base := range []float64{0.2, 1e-6} {
			for _, spread := range []float64{1, 4} {
				for _, merge := range []bool{false, true} {
					p := Plan{Merge: merge}
					for i, name := range tr.Header.Classes {
						p.Classes = append(p.Classes, ClassSpec{Name: name, SLO: base * math.Pow(spread, float64(i))})
					}
					oc := OptimizerConfig{Workers: 1}
					got, err := Optimize(p, windows, oc)
					if err != nil {
						t.Fatal(err)
					}
					want, err := optimize(p, windows, oc, exhaustiveBest)
					if err != nil {
						t.Fatal(err)
					}
					gb, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					wb, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gb, wb) {
						t.Errorf("%d classes, base %g, spread %g, merge %v:\n got %s\nwant %s", classes, base, spread, merge, gb, wb)
					}
				}
			}
		}
	}
}
