// Package optimizer implements the Optimizer component of DeepBAT
// (Section III-E): given the deep surrogate model's cost and latency
// predictions for every candidate configuration, it solves the paper's
// optimization problem (Eq. 10) by exhaustive search — minimize the cost per
// request subject to the predicted i-th percentile latency meeting the SLO.
//
// A penalty factor gamma (Section III-D, Model Fine-Tuning) optionally
// tightens the SLO to SLO*(1-gamma) as a fast, robust reaction to entirely
// unseen arrival processes.
package optimizer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/stats"
	"deepbat/internal/surrogate"
)

// Optimizer selects configurations from surrogate predictions.
type Optimizer struct {
	Model *surrogate.Model
	Grid  lambda.Grid
	// SLO is the latency objective in seconds (Eq. 10b).
	SLO float64
	// Pct is the percentile the SLO constrains; it must be one of the
	// model's predicted percentiles (the paper uses 95).
	Pct float64
	// Gamma tightens the effective SLO to SLO*(1-Gamma); 0 disables it.
	Gamma float64
	// Obs, when non-nil, accumulates per-Decide counters: decisions, grid
	// candidates evaluated and rejected, infeasible fallbacks, candidates
	// per batched sweep, and (when Clock is also set) a grid-sweep duration
	// histogram.
	Obs *obs.Registry
	// Clock, when non-nil alongside Obs, times each batched PredictGrid
	// sweep. Inject a WallClock when serving and a ManualClock in
	// simulations/experiments so reports stay byte-identical.
	Clock obs.Clock
	// Recorder, when non-nil, receives one "decide" event per grid search.
	Recorder *obs.Recorder

	// Per-call work that only depends on fields above, memoised against the
	// values it was derived from: Grid.Configs() against the three axes, the
	// metric handles against the Obs registry. Either is rebuilt when its
	// source no longer matches, so assigning Grid or Obs needs no ceremony.
	configs atomic.Pointer[gridConfigs]
	metrics atomic.Pointer[decideMetrics]
}

// gridConfigs is Grid.Configs() together with a private copy of the grid it
// enumerates.
type gridConfigs struct {
	grid lambda.Grid
	cfgs []lambda.Config
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// candidates returns the configuration list of o.Grid, enumerating it only
// when an axis has changed since the last call. The slice is shared across
// calls and must not be modified.
func (o *Optimizer) candidates() []lambda.Config {
	g := o.Grid
	if c := o.configs.Load(); c != nil && slices.EqualFunc(c.grid.Memories, g.Memories, sameBits) &&
		slices.Equal(c.grid.Batches, g.Batches) && slices.EqualFunc(c.grid.TimeoutsS, g.TimeoutsS, sameBits) {
		return c.cfgs
	}
	c := &gridConfigs{
		grid: lambda.Grid{
			Memories:  slices.Clone(g.Memories),
			Batches:   slices.Clone(g.Batches),
			TimeoutsS: slices.Clone(g.TimeoutsS),
		},
		cfgs: g.Configs(),
	}
	o.configs.Store(c)
	return c.cfgs
}

// New returns an optimizer with the paper's defaults (95th percentile).
func New(m *surrogate.Model, grid lambda.Grid, slo float64) *Optimizer {
	return &Optimizer{Model: m, Grid: grid, SLO: slo, Pct: 95}
}

// Decision is the outcome of one optimization.
type Decision struct {
	Config lambda.Config
	// Prediction is the surrogate output for the chosen configuration.
	Prediction surrogate.Prediction
	// Feasible reports whether any configuration met the (tightened) SLO;
	// when false the decision is the lowest-predicted-tail fallback.
	Feasible bool
	// EffectiveSLO is the constraint actually applied after gamma.
	EffectiveSLO float64
	// Evaluated counts candidate configurations scored.
	Evaluated int
}

// Decide encodes the recent interarrival window once, scores every candidate
// configuration, and returns the cheapest SLO-feasible one.
func (o *Optimizer) Decide(window []float64) (Decision, error) {
	if len(window) == 0 {
		return Decision{}, errors.New("optimizer: empty arrival window")
	}
	cfgs := o.candidates()
	if len(cfgs) == 0 {
		return Decision{}, errors.New("optimizer: empty configuration grid")
	}
	pct, ok := pctIndex(o.Model.Cfg, o.Pct)
	if !ok {
		return Decision{}, fmt.Errorf("optimizer: model does not predict P%g", o.Pct)
	}
	met, err := o.obsMetrics()
	if err != nil {
		return Decision{}, err
	}
	eff := o.SLO * (1 - clamp01(o.Gamma))
	sweepStart := 0.0
	if o.Clock != nil {
		sweepStart = o.Clock.Now()
	}
	preds := o.Model.PredictGrid(window, cfgs)
	elapsed := -1.0
	if o.Clock != nil {
		elapsed = o.Clock.Now() - sweepStart
	}
	met.observeSweep(len(cfgs), elapsed)
	best := -1
	fallback := 0
	rejected := 0
	bestTail := math.Inf(1)
	for i, p := range preds {
		tail := p.Percentiles[pct]
		if tail < bestTail {
			bestTail, fallback = tail, i
		}
		if tail > eff {
			rejected++
			continue
		}
		if best < 0 || p.CostPerRequest < preds[best].CostPerRequest {
			best = i
		}
	}
	d := Decision{EffectiveSLO: eff, Evaluated: len(cfgs), Feasible: best >= 0}
	if best < 0 {
		best = fallback
	}
	d.Config = cfgs[best]
	d.Prediction = preds[best]
	met.observeDecision(d, rejected)
	recordDecision(o.Recorder, d, d.Prediction.Percentiles[pct], rejected)
	return d, nil
}

func pctIndex(cfg surrogate.ModelConfig, pct float64) (int, bool) {
	for i, q := range cfg.Percentiles {
		if stats.ApproxEqual(q, pct, stats.PercentileLevelTol) {
			return i, true
		}
	}
	return 0, false
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 0.9 {
		return 0.9
	}
	return x
}
