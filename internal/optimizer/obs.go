package optimizer

import "deepbat/internal/obs"

// sweepDurationBounds buckets the surrogate grid-sweep latency; the batched
// path lands in the sub-millisecond buckets on current hardware, and the
// upper bounds leave headroom for much larger grids.
var sweepDurationBounds = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1}

// decideMetrics holds the series Decide maintains when Optimizer.Obs is set.
type decideMetrics struct {
	reg        *obs.Registry // the registry the handles below belong to
	decisions  *obs.Counter
	evaluated  *obs.Counter
	rejected   *obs.Counter
	infeasible *obs.Counter
	// sweepCands counts candidate configurations handed to PredictGrid and
	// sweepDur distributes the wall/simulated time one batched sweep took
	// (observed only when the optimizer carries a Clock).
	sweepCands *obs.Counter
	sweepDur   *obs.Histogram
}

// obsMetrics returns the metric handles for o.Obs (nil when unset),
// registering them on the first decision against a registry and reusing them
// until Obs points elsewhere.
func (o *Optimizer) obsMetrics() (*decideMetrics, error) {
	reg := o.Obs
	if reg == nil {
		return nil, nil
	}
	if m := o.metrics.Load(); m != nil && m.reg == reg {
		return m, nil
	}
	m, err := newDecideMetrics(reg)
	if err != nil {
		return nil, err
	}
	o.metrics.Store(m)
	return m, nil
}

func newDecideMetrics(reg *obs.Registry) (*decideMetrics, error) {
	m := &decideMetrics{reg: reg}
	var err error
	counter := func(dst **obs.Counter, name, help string) {
		if err == nil {
			*dst, err = reg.Counter(name, help)
		}
	}
	counter(&m.decisions, "optimizer_decisions_total", "grid searches completed")
	counter(&m.evaluated, "optimizer_candidates_evaluated_total", "candidate configurations scored")
	counter(&m.rejected, "optimizer_candidates_rejected_total", "candidates whose predicted tail missed the effective SLO")
	counter(&m.infeasible, "optimizer_infeasible_total", "decisions that fell back to the lowest-tail configuration")
	counter(&m.sweepCands, "optimizer_sweep_candidates_total", "candidate configurations batched per surrogate grid sweep")
	if err == nil {
		m.sweepDur, err = reg.Histogram("optimizer_sweep_duration_seconds",
			"duration of one batched surrogate grid sweep", sweepDurationBounds)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// observeSweep records one batched PredictGrid call: the candidate count and,
// when a clock was available (elapsed >= 0), its duration.
func (m *decideMetrics) observeSweep(candidates int, elapsed float64) {
	if m == nil {
		return
	}
	m.sweepCands.Add(float64(candidates))
	if elapsed >= 0 {
		m.sweepDur.Observe(elapsed)
	}
}

// observeDecision records one completed grid search.
func (m *decideMetrics) observeDecision(d Decision, rejected int) {
	if m == nil {
		return
	}
	m.decisions.Inc()
	m.evaluated.Add(float64(d.Evaluated))
	m.rejected.Add(float64(rejected))
	if !d.Feasible {
		m.infeasible.Inc()
	}
}

// recordDecision appends a "decide" event describing the chosen
// configuration. The recorder's clock supplies the timestamp, so a
// ManualClock keeps replays deterministic.
func recordDecision(rec *obs.Recorder, d Decision, tail float64, rejected int) {
	if rec == nil {
		return
	}
	rec.Event("decide",
		obs.S("config", d.Config.String()),
		obs.F("cost_usd", d.Prediction.CostPerRequest),
		obs.F("tail_s", tail),
		obs.F("effective_slo_s", d.EffectiveSLO),
		obs.I("evaluated", d.Evaluated),
		obs.I("rejected", rejected),
		obs.B("feasible", d.Feasible),
	)
}
