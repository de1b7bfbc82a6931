// The fleet planner: per-unit ground-truth (M, B, T) search plus the
// HarmonyBatch-style merging pass. The planner runs on the slow timescale
// (offline, or between replan epochs); the per-group tuner in fleet.go
// re-searches (M, B, T) alone on the fast timescale.
package fleet

import (
	"errors"
	"fmt"
	"sort"

	"deepbat/internal/lambda"
	"deepbat/internal/qsim"
)

// Group is one function group of an assignment: the classes packed onto it,
// the SLO it serves (its strictest member's), and the configuration the
// search chose for the merged arrival stream.
type Group struct {
	// Classes holds the member class indices, ascending.
	Classes []int `json:"classes"`
	// SLO is the group's serving objective: the strictest member SLO.
	SLO float64 `json:"slo_s"`
	// Profile is the shared service-time profile of the members.
	Profile string `json:"profile"`
	// Config is the group's serving configuration.
	Config lambda.Config `json:"config"`
	// PredictedCostUSD is the qsim-predicted cost of serving the group's
	// merged window under Config (0 for idle or unoptimized groups).
	PredictedCostUSD float64 `json:"predicted_cost_usd"`
	// Feasible reports whether Config met the group SLO at the planning
	// percentile over the merged window.
	Feasible bool `json:"feasible"`
}

// Assignment maps every class onto a function group.
type Assignment struct {
	Groups []Group `json:"groups"`
	// ByClass[i] is the group index serving class i.
	ByClass []int `json:"by_class"`
	// SplitCostUSD is the predicted total cost with every unit on its own
	// group (the per-class-only optimum the merge pass must beat).
	SplitCostUSD float64 `json:"split_cost_usd"`
	// MergedCostUSD is the predicted total cost of the final groups.
	MergedCostUSD float64 `json:"merged_cost_usd"`
}

// OptimizerConfig parameterizes Optimize.
type OptimizerConfig struct {
	// Grid overrides the plan's search grid when non-empty.
	Grid lambda.Grid
	// Pct is the latency percentile SLOs are enforced at (0 = 95).
	Pct float64
	// Workers bounds each grid search's parallel fan-out (0 = GOMAXPROCS,
	// 1 = serial). Results are bit-identical at any value.
	Workers int
}

func (oc OptimizerConfig) pct() float64 {
	if oc.Pct > 0 {
		return oc.Pct
	}
	return 95
}

func (oc OptimizerConfig) grid(p Plan) lambda.Grid {
	if oc.Grid.Size() > 0 {
		return oc.Grid
	}
	return p.LambdaGrid()
}

// unit is one atomic merge unit during planning: a static group with its
// solo search outcome.
type unit struct {
	members  []int
	arrivals []float64
	slo      float64
	profile  string
	pricing  lambda.Pricing
	cfg      lambda.Config
	cost     float64
	feasible bool
	idle     bool
}

// StaticAssignment builds the assignment New uses when no optimizer ran:
// the plan's static merge units, each serving its strictest member's SLO
// under its strictest member's initial configuration.
func StaticAssignment(p Plan) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Assignment{ByClass: make([]int, len(p.Classes))}
	for gi, members := range p.StaticGroups() {
		lead := leadOf(p, members)
		a.Groups = append(a.Groups, Group{
			Classes: members,
			SLO:     p.Classes[lead].SLO,
			Profile: p.Classes[lead].profileName(),
			Config:  p.Classes[lead].InitialConfig(),
		})
		for _, ci := range members {
			a.ByClass[ci] = gi
		}
	}
	return a, nil
}

// leadOf returns the strictest-SLO member (ties to the lowest index).
func leadOf(p Plan, members []int) int {
	lead := members[0]
	for _, ci := range members[1:] {
		if p.Classes[ci].SLO < p.Classes[lead].SLO {
			lead = ci
		}
	}
	return lead
}

// mergeSorted merges two nondecreasing timestamp slices, ties keeping a's
// element first — a pure, order-deterministic reduction.
func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Optimize searches the grid per merge unit and, when the plan allows,
// greedily packs SLO-compatible units onto shared function groups. windows
// holds one nondecreasing absolute-timestamp arrival window per class (empty
// = idle class). A merge is accepted only when the merged group's best
// configuration still meets the strictest member SLO at the planning
// percentile AND its predicted cost is strictly below the sum of the split
// groups' predicted costs — otherwise the units stay apart. The result is a
// pure function of (plan, windows, config) at any Workers value.
func Optimize(p Plan, windows [][]float64, oc OptimizerConfig) (*Assignment, error) {
	return optimize(p, windows, oc, (*qsim.Simulator).GroundTruthBest)
}

// gridSearch is the signature of qsim's GroundTruthBest; tests plan with an
// exhaustive reference in its place.
type gridSearch func(sim *qsim.Simulator, arrivals []float64, grid lambda.Grid, slo, pct float64) (lambda.Config, qsim.Score, error)

func optimize(p Plan, windows [][]float64, oc OptimizerConfig, best gridSearch) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(windows) != len(p.Classes) {
		return nil, fmt.Errorf("fleet: Optimize got %d windows for %d classes", len(windows), len(p.Classes))
	}
	grid := oc.grid(p)
	if grid.Size() == 0 {
		return nil, errors.New("fleet: empty search grid")
	}
	pct := oc.pct()
	// search is one ground-truth grid search for unit u's profile, pricing
	// and SLO over arrivals: the chosen config, its predicted cost, and
	// whether its tail met the SLO, all read off the search's score.
	search := func(u *unit, arrivals []float64) (lambda.Config, float64, bool, error) {
		sim := qsim.New(lambda.Profiles[u.profile], u.pricing)
		sim.Opts.Workers = oc.Workers
		cfg, score, err := best(sim, arrivals, grid, u.slo, pct)
		if err != nil {
			return lambda.Config{}, 0, false, err
		}
		return cfg, score.TotalCost, score.Feasible, nil
	}

	// Phase 1: solo search per static unit.
	units := make([]*unit, 0, len(p.Classes))
	for _, members := range p.StaticGroups() {
		lead := leadOf(p, members)
		u := &unit{
			members: members,
			slo:     p.Classes[lead].SLO,
			profile: p.Classes[lead].profileName(),
			pricing: p.Classes[lead].LambdaPricing(),
			cfg:     p.Classes[lead].InitialConfig(),
		}
		for _, ci := range members {
			u.arrivals = mergeSorted(u.arrivals, windows[ci])
		}
		if len(u.arrivals) == 0 {
			u.idle = true
			u.feasible = true
			units = append(units, u)
			continue
		}
		var err error
		if u.cfg, u.cost, u.feasible, err = search(u, u.arrivals); err != nil {
			return nil, fmt.Errorf("fleet: unit search: %w", err)
		}
		units = append(units, u)
	}
	splitCost := 0.0
	for _, u := range units {
		splitCost += u.cost
	}

	// Phase 2: the merging pass. Units are visited strictest SLO first
	// (ties by first member), so a growing group's SLO — its strictest
	// member's — never tightens when a new unit joins it.
	groups := units
	if p.Merge && len(units) > 1 {
		order := make([]int, len(units))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ua, ub := units[order[a]], units[order[b]]
			if ua.slo < ub.slo {
				return true
			}
			if ub.slo < ua.slo {
				return false
			}
			return ua.members[0] < ub.members[0]
		})
		groups = make([]*unit, 0, len(units))
		for _, ui := range order {
			u := units[ui]
			merged := false
			if !u.idle && u.feasible {
				for _, g := range groups {
					if g.idle || !g.feasible || g.profile != u.profile || g.pricing != u.pricing {
						continue
					}
					arrivals := mergeSorted(g.arrivals, u.arrivals)
					cfg, cost, feasible, err := search(g, arrivals)
					if err != nil {
						return nil, fmt.Errorf("fleet: merge search: %w", err)
					}
					if !feasible || cost >= g.cost+u.cost {
						continue
					}
					g.members = append(g.members, u.members...)
					g.arrivals = arrivals
					g.cfg = cfg
					g.cost = cost
					merged = true
					break
				}
			}
			if !merged {
				groups = append(groups, u)
			}
		}
	}

	// Assemble in first-member order with ascending members per group.
	for _, g := range groups {
		sort.Ints(g.members)
	}
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].members[0] < groups[b].members[0] })
	a := &Assignment{ByClass: make([]int, len(p.Classes))}
	for gi, g := range groups {
		a.Groups = append(a.Groups, Group{
			Classes:          g.members,
			SLO:              g.slo,
			Profile:          g.profile,
			Config:           g.cfg,
			PredictedCostUSD: g.cost,
			Feasible:         g.feasible,
		})
		a.MergedCostUSD += g.cost
		for _, ci := range g.members {
			a.ByClass[ci] = gi
		}
	}
	a.SplitCostUSD = splitCost
	return a, nil
}
