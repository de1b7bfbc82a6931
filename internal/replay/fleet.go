package replay

import (
	"fmt"
	"io"

	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/workload"
)

// FleetConfig parameterizes one class-labeled replay through a fleet front
// door: every trace class routes to the plan class of the same name, each
// function group runs the real sharded gateway hot path on the shared manual
// clock, and the per-class SLOs come from the plan.
type FleetConfig struct {
	// Trace is the workload to replay (required). Every class in the trace
	// header must name a plan class.
	Trace *workload.Trace
	// Plan declares the fleet (required, validated by fleet.New).
	Plan fleet.Plan
	// Assignment overrides the plan's static grouping with an optimizer
	// result (nil = static groups with per-class initial configs).
	Assignment *fleet.Assignment
	// TimeScale compresses trace time (0 = 1.0), as in Config.TimeScale.
	TimeScale float64
	// Cache memoizes the trace digest across runs (optional).
	Cache *workload.Cache
}

// FleetClassRow is one class's outcome over the whole replay.
type FleetClassRow struct {
	Class      string  `json:"class"`
	Group      int     `json:"group"`
	SLO        float64 `json:"slo_s"`
	Arrivals   int     `json:"arrivals"`
	Served     int     `json:"served"`
	Failed     int     `json:"failed"`
	GoodputRPS float64 `json:"goodput_rps"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	CostUSD    float64 `json:"cost_usd"`
}

// FleetGroupRow is one function group's identity and serving totals.
type FleetGroupRow struct {
	Group       int     `json:"group"`
	Classes     string  `json:"classes"`
	Config      string  `json:"config"`
	Shards      int     `json:"shards"`
	SLO         float64 `json:"slo_s"`
	Invocations int     `json:"invocations"`
	CostUSD     float64 `json:"cost_usd"`
}

// FleetReport is the outcome of one fleet replay.
type FleetReport struct {
	Trace       string          `json:"trace"`
	Seed        int64           `json:"seed"`
	TraceDigest string          `json:"trace_digest"`
	Requests    int             `json:"requests"`
	TimeScale   float64         `json:"time_scale"`
	DurationS   float64         `json:"duration_s"`
	Groups      []FleetGroupRow `json:"groups"`
	Classes     []FleetClassRow `json:"classes"`
	Totals      FleetClassRow   `json:"totals"`
	Invocations int             `json:"invocations"`
	CostUSD     float64         `json:"cost_usd"`
}

// RunFleet replays a class-labeled trace through a fleet on a manual clock.
// Like Run, the whole report is a pure function of (trace bytes, plan,
// assignment): the driver is single-threaded, batch timeouts fire at their
// modeled instants via the fleet's virtual timers, and each group's backend
// charges its deterministic service time to the shared clock.
func RunFleet(c FleetConfig) (FleetReport, error) {
	return runFleet(c, fault.Plan{})
}

// runFleet is RunFleet with every group's backend behind its own injector of
// one fault plan (inactive = none), as Config.Fault does for Run. It is how
// the differential test puts both entry points under the same fault stream.
func runFleet(c FleetConfig, fp fault.Plan) (FleetReport, error) {
	digest, ts, err := admit(c.Trace, c.Cache, c.TimeScale)
	if err != nil {
		return FleetReport{}, err
	}
	// Route trace classes to plan classes by name, up front: a trace class
	// the plan does not serve is a configuration error, not a per-request
	// surprise halfway through the replay.
	classMap := make([]int, len(c.Trace.Header.Classes))
	for ti, name := range c.Trace.Header.Classes {
		ci := c.Plan.ClassIndex(name)
		if ci < 0 {
			return FleetReport{}, fmt.Errorf("replay: trace class %q is not a plan class", name)
		}
		classMap[ti] = ci
	}
	clock := &obs.ManualClock{}
	f, err := fleet.New(c.Plan, fleet.Options{
		Clock:         clock,
		VirtualTimers: true,
		Assignment:    c.Assignment,
		BackendFor: func(gi int, g fleet.Group) gateway.Backend {
			lead := c.Plan.Classes[g.Classes[0]]
			for _, ci := range g.Classes[1:] {
				if c.Plan.Classes[ci].SLO < lead.SLO {
					lead = c.Plan.Classes[ci]
				}
			}
			var inner gateway.Backend = gateway.SimulatedBackend{
				Profile: lambda.Profiles[g.Profile],
				Pricing: lead.LambdaPricing(),
			}
			if fp.Active() {
				inner = &fault.FaultyBackend{Inner: inner, Inj: fault.NewInjector(fp)}
			}
			return clockBackend{inner: inner, clock: clock}
		},
	})
	if err != nil {
		return FleetReport{}, fmt.Errorf("replay: %w", err)
	}

	reqs := c.Trace.Reqs
	s := getScratch(len(reqs))
	defer putScratch(s)
	handles, arrive := s.handles, s.arrive
	end := drive(f, clock, c.Trace, ts, classMap, handles, arrive)

	// Fold responses per class. Handles resolve in submission order.
	rows := make([]FleetClassRow, len(c.Plan.Classes))
	perClass := s.winBuckets(len(c.Plan.Classes))
	all := s.all
	var totals FleetClassRow
	good := make([]int, len(c.Plan.Classes))
	totalGood := 0
	for i, h := range handles {
		resp := h.Wait()
		ci := classMap[reqs[i].Class]
		row := &rows[ci]
		row.Arrivals++
		totals.Arrivals++
		if resp.Error != "" {
			row.Failed++
			totals.Failed++
			continue
		}
		row.Served++
		totals.Served++
		row.CostUSD += resp.CostUSD
		totals.CostUSD += resp.CostUSD
		perClass[ci] = append(perClass[ci], resp.LatencyMS)
		all = append(all, resp.LatencyMS)
		if resp.LatencyMS <= c.Plan.Classes[ci].SLO*1000 {
			good[ci]++
			totalGood++
		}
	}
	for ci := range rows {
		rows[ci].Class = c.Plan.Classes[ci].Name
		rows[ci].Group = f.GroupOf(ci)
		rows[ci].SLO = c.Plan.Classes[ci].SLO
		if end > 0 {
			rows[ci].GoodputRPS = float64(good[ci]) / end
		}
		rows[ci].P50MS, rows[ci].P95MS, rows[ci].P99MS = tails(perClass[ci])
	}
	if end > 0 {
		totals.GoodputRPS = float64(totalGood) / end
	}
	totals.P50MS, totals.P95MS, totals.P99MS = tails(all)
	s.all = all // keep capacity grown by appends for the next pooled run

	rep := FleetReport{
		Trace:       c.Trace.Header.Name,
		Seed:        c.Trace.Header.Seed,
		TraceDigest: fmt.Sprintf("%016x", digest),
		Requests:    len(reqs),
		TimeScale:   ts,
		DurationS:   end,
		Classes:     rows,
		Totals:      totals,
	}
	assign := f.Assignment()
	for gi := range assign.Groups {
		grp := assign.Groups[gi]
		names := ""
		for i, ci := range grp.Classes {
			if i > 0 {
				names += "+"
			}
			names += c.Plan.Classes[ci].Name
		}
		g := f.GroupGateway(gi)
		st := g.Stats()
		rep.Groups = append(rep.Groups, FleetGroupRow{
			Group:       gi,
			Classes:     names,
			Config:      grp.Config.String(),
			Shards:      g.Shards(),
			SLO:         grp.SLO,
			Invocations: st.Invocations,
			CostUSD:     st.TotalCostUSD,
		})
		rep.Invocations += st.Invocations
		rep.CostUSD += st.TotalCostUSD
	}
	return rep, nil
}

// WriteText renders the fleet report as a fixed-format text table — byte-
// reproducible run to run for the same trace and plan.
func (r FleetReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"fleet replay %s seed=%d digest=%s requests=%d classes=%d groups=%d scale=%.2fx duration=%.1fs\n",
		r.Trace, r.Seed, r.TraceDigest, r.Requests, len(r.Classes), len(r.Groups), r.TimeScale, r.DurationS); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%5s %-24s %-22s %8s %12s %12s\n",
		"group", "classes", "config", "slo_ms", "invocations", "cost_usd"); err != nil {
		return err
	}
	for _, g := range r.Groups {
		if _, err := fmt.Fprintf(w, "%5d %-24s %-22s %8.1f %12d %12.6f\n",
			g.Group, g.Classes, g.Config, g.SLO*1000, g.Invocations, g.CostUSD); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-12s %5s %8s %8s %8s %8s %10s %9s %9s %9s %12s\n",
		"class", "group", "slo_ms", "arrive", "served", "failed", "good_rps", "p50_ms", "p95_ms", "p99_ms", "cost_usd"); err != nil {
		return err
	}
	row := func(label string, group string, d FleetClassRow) error {
		_, err := fmt.Fprintf(w, "%-12s %5s %8.1f %8d %8d %8d %10.2f %9.2f %9.2f %9.2f %12.6f\n",
			label, group, d.SLO*1000, d.Arrivals, d.Served, d.Failed,
			d.GoodputRPS, d.P50MS, d.P95MS, d.P99MS, d.CostUSD)
		return err
	}
	for _, d := range r.Classes {
		if err := row(d.Class, fmt.Sprintf("%d", d.Group), d); err != nil {
			return err
		}
	}
	if err := row("total", "-", r.Totals); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "invocations=%d total_cost_usd=%.6f\n", r.Invocations, r.CostUSD)
	return err
}
