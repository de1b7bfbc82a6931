// The fleet open loop: one seeded Poisson process per plan class, merged into
// a single class-labeled trace and replayed through the fleet front door on
// a manual clock. Per-class goodput is judged against each class's own SLO —
// the multi-SLO figure the fleet experiment tabulates.
package loadgen

import (
	"errors"
	"fmt"

	"deepbat/internal/fleet"
	"deepbat/internal/replay"
	"deepbat/internal/sweep"
)

// FleetResult is the outcome of one fleet open-loop run: one report per plan
// class (in plan order) plus the fleet-wide total.
type FleetResult struct {
	PerClass []Report `json:"per_class"`
	Total    Report   `json:"total"`
}

// RunFleetOpen drives a fleet with per-class Poisson arrivals through
// replay.RunFleet. Each class i draws interarrivals at its plan RateRPS from
// its own rng seeded sweep.CellSeed(c.Seed, i); the streams are merged by
// arrival time (ties to the lower class index) and submitted single-threaded,
// with due batch timeouts flushed in virtual time before each arrival. The
// run is fully deterministic: same plan + Config, byte-identical FleetResult.
//
// Config fields used: Requests (total across classes, required) and Seed;
// Clients, Duration, RateRPS and FaultErrorRate do not apply to the fleet
// loop.
func RunFleetOpen(p fleet.Plan, c Config) (FleetResult, error) {
	if c.Requests <= 0 {
		return FleetResult{}, errors.New("loadgen: fleet open loop needs Requests")
	}
	names := make([]string, len(p.Classes))
	rates := make([]float64, len(p.Classes))
	seeds := make([]int64, len(p.Classes))
	anyRate := false
	for i, spec := range p.Classes {
		names[i], rates[i], seeds[i] = spec.Name, spec.RateRPS, sweep.CellSeed(c.Seed, i)
		if spec.RateRPS > 0 {
			anyRate = true
		}
	}
	if !anyRate {
		return FleetResult{}, errors.New("loadgen: fleet open loop needs at least one class with rate_rps > 0")
	}
	rep, err := replay.RunFleet(replay.FleetConfig{
		Trace: poissonTrace(c.Seed, names, rates, seeds, c.Requests),
		Plan:  p,
	})
	if err != nil {
		return FleetResult{}, fmt.Errorf("loadgen: %w", err)
	}
	row := func(r replay.FleetClassRow, shards int, costUSD float64) Report {
		out := Report{
			Mode:         "open",
			Shards:       shards,
			Requests:     r.Arrivals,
			Served:       r.Served,
			Failed:       r.Failed,
			ElapsedS:     rep.DurationS,
			GoodputRPS:   r.GoodputRPS,
			P50MS:        r.P50MS,
			P95MS:        r.P95MS,
			P99MS:        r.P99MS,
			TotalCostUSD: costUSD,
		}
		if rep.DurationS > 0 {
			out.ThroughputRPS = float64(r.Served) / rep.DurationS
		}
		return out
	}
	res := FleetResult{Total: row(rep.Totals, 0, rep.CostUSD)}
	for _, r := range rep.Classes {
		pr := row(r, rep.Groups[r.Group].Shards, r.CostUSD)
		pr.Class = r.Class
		res.PerClass = append(res.PerClass, pr)
	}
	return res, nil
}
