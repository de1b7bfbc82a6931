package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/qsim"
)

// Options parameterizes New beyond the plan itself. The zero value serves
// every group on a simulated backend on the wall clock, with no tuner.
type Options struct {
	// BackendFor, when non-nil, supplies each group's backend (gi is the
	// group index into the assignment). nil builds a SimulatedBackend from
	// the group's profile and pricing.
	BackendFor func(gi int, g Group) gateway.Backend
	// Clock is the shared gateway clock (nil = wall clock). Virtual-time
	// drivers inject an obs.ManualClock, which needs VirtualTimers.
	Clock obs.Clock
	// VirtualTimers sets gateway.Config.VirtualTimers on every group: no
	// group starts a flusher, and the driver fires batch timeouts with
	// NextFlushDeadline/FlushDue instead.
	VirtualTimers bool
	// ObsFor, when non-nil, supplies each group's metric registry (one
	// gateway's series per registry — the names collide otherwise). nil, or
	// a nil result, gives each group a private registry.
	ObsFor func(gi int, g Group) *obs.Registry
	// Assignment overrides the plan's static grouping with an optimizer
	// result (its groups must partition the plan's classes).
	Assignment *Assignment
	// Tune enables the per-group (M, B, T) tuner: each group gateway gets a
	// decide function that ground-truth-searches the plan grid over the
	// group's recent interarrival window at the group SLO. TuneEvery > 0
	// also runs it periodically; with Tune alone, DecideNow drives it.
	Tune      bool
	TuneEvery time.Duration
	// Pct is the tuner's SLO percentile (0 = 95).
	Pct float64
	// WindowLen is the tuner's interarrival window length (0 = gateway
	// default).
	WindowLen int
	// EventCap bounds each group gateway's event stream (0 = default).
	EventCap int
}

// Fleet is the running multi-class front door: one sharded gateway per
// function group, a class-indexed router in front, and the per-group tuner
// behind. Create with New, stop with Stop.
type Fleet struct {
	plan    Plan
	assign  *Assignment
	gws     []*gateway.Gateway
	byClass []int          // class index -> group index
	names   map[string]int // class name -> class index
}

// New validates the plan and builds the fleet's group gateways. A 1-class
// plan builds exactly one gateway with exactly the class's configuration —
// bit-identical to constructing that gateway directly.
func New(p Plan, o Options) (*Fleet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	assign := o.Assignment
	if assign == nil {
		var err error
		if assign, err = StaticAssignment(p); err != nil {
			return nil, err
		}
	} else if err := checkAssignment(p, assign); err != nil {
		return nil, err
	}
	f := &Fleet{
		plan:    p,
		assign:  assign,
		byClass: assign.ByClass,
		names:   make(map[string]int, len(p.Classes)),
	}
	for i, c := range p.Classes {
		f.names[c.Name] = i
	}
	tune := o.Tune || o.TuneEvery > 0
	pct := o.Pct
	if pct <= 0 {
		pct = 95
	}
	grid := p.LambdaGrid()
	f.gws = make([]*gateway.Gateway, len(assign.Groups))
	for gi, grp := range assign.Groups {
		lead := leadOf(p, grp.Classes)
		spec := p.Classes[lead]
		var backend gateway.Backend
		if o.BackendFor != nil {
			backend = o.BackendFor(gi, grp)
		}
		if backend == nil {
			backend = gateway.SimulatedBackend{
				Profile: lambda.Profiles[grp.Profile],
				Pricing: spec.LambdaPricing(),
			}
		}
		var reg *obs.Registry
		if o.ObsFor != nil {
			reg = o.ObsFor(gi, grp)
		}
		var decide gateway.DecideFunc
		if tune {
			decide = tuner(lambda.Profiles[grp.Profile], spec.LambdaPricing(), grid, grp.SLO, pct)
		}
		g, err := gateway.New(backend, decide, gateway.Config{
			Initial:       grp.Config,
			SLO:           grp.SLO,
			DecideEvery:   o.TuneEvery,
			WindowLen:     o.WindowLen,
			Obs:           reg,
			EventCap:      o.EventCap,
			Clock:         o.Clock,
			Resilience:    spec.Resilience.Resilience(),
			Shards:        spec.Shards,
			VirtualTimers: o.VirtualTimers,
		})
		if err != nil {
			for _, built := range f.gws[:gi] {
				built.Stop()
			}
			return nil, fmt.Errorf("fleet: group %d: %w", gi, err)
		}
		f.gws[gi] = g
	}
	return f, nil
}

// tuner builds one group's fast-timescale decide function: a serial
// ground-truth grid search over the group's recent arrival window at the
// group's (strictest-member) SLO.
func tuner(profile lambda.Profile, pricing lambda.Pricing, grid lambda.Grid, slo, pct float64) gateway.DecideFunc {
	sim := qsim.New(profile, pricing)
	sim.Opts.Workers = 1
	return func(window []float64) (lambda.Config, error) {
		cfg, _, err := sim.GroundTruthBest(qsim.Timestamps(window), grid, slo, pct)
		return cfg, err
	}
}

// checkAssignment verifies an injected assignment partitions the plan's
// classes with consistent membership and per-group invariants.
func checkAssignment(p Plan, a *Assignment) error {
	if len(a.ByClass) != len(p.Classes) {
		return fmt.Errorf("fleet: assignment covers %d classes, plan has %d", len(a.ByClass), len(p.Classes))
	}
	seen := make([]bool, len(p.Classes))
	for gi, g := range a.Groups {
		if len(g.Classes) == 0 {
			return fmt.Errorf("fleet: assignment group %d is empty", gi)
		}
		if !g.Config.Valid() {
			return fmt.Errorf("fleet: assignment group %d has invalid config %s", gi, g.Config)
		}
		for _, ci := range g.Classes {
			if ci < 0 || ci >= len(p.Classes) {
				return fmt.Errorf("fleet: assignment group %d references class %d of %d", gi, ci, len(p.Classes))
			}
			if seen[ci] {
				return fmt.Errorf("fleet: class %q assigned twice", p.Classes[ci].Name)
			}
			seen[ci] = true
			if a.ByClass[ci] != gi {
				return fmt.Errorf("fleet: ByClass[%d] = %d, group %d claims it", ci, a.ByClass[ci], gi)
			}
			if p.Classes[ci].profileName() != g.Profile {
				return fmt.Errorf("fleet: class %q (profile %s) in a %s group",
					p.Classes[ci].Name, p.Classes[ci].profileName(), g.Profile)
			}
		}
	}
	for ci, ok := range seen {
		if !ok {
			return fmt.Errorf("fleet: class %q not assigned to any group", p.Classes[ci].Name)
		}
	}
	return nil
}

// Plan returns the fleet's plan.
func (f *Fleet) Plan() Plan { return f.plan }

// Assignment returns the grouping the fleet serves.
func (f *Fleet) Assignment() *Assignment { return f.assign }

// Classes returns the number of classes.
func (f *Fleet) Classes() int { return len(f.plan.Classes) }

// Groups returns the number of function groups (= gateways).
func (f *Fleet) Groups() int { return len(f.gws) }

// ClassIndex resolves a class name to its index (-1 when unknown).
func (f *Fleet) ClassIndex(name string) int {
	if i, ok := f.names[name]; ok {
		return i
	}
	return -1
}

// GroupOf returns the group index serving class.
func (f *Fleet) GroupOf(class int) int { return f.byClass[class] }

// GatewayFor returns the gateway serving class — the handle tests and
// drivers use for per-group stats, metrics, and breaker state.
func (f *Fleet) GatewayFor(class int) *gateway.Gateway {
	return f.gws[f.byClass[class]]
}

// GroupGateway returns the gi-th group's gateway.
func (f *Fleet) GroupGateway(gi int) *gateway.Gateway { return f.gws[gi] }

// Submit routes one request of the given class onto its group's pooled
// zero-alloc admit path. The caller must consume the handle via Wait. It
// panics on an out-of-range class index, like any slice access.
func (f *Fleet) Submit(class int) gateway.Handle {
	return f.gws[f.byClass[class]].Submit()
}

// Do submits one request of the given class and waits for its response.
func (f *Fleet) Do(class int) gateway.Response {
	return f.Submit(class).Wait()
}

// DecideNow forces one synchronous tuner decision on every group, in group
// order — the deterministic way to drive the fast timescale.
func (f *Fleet) DecideNow() {
	for _, g := range f.gws {
		g.DecideNow()
	}
}

// Apply pushes an optimizer assignment with the SAME grouping onto the
// running fleet: each group gateway is reconfigured to the new group config.
// A changed grouping needs a rebuild (gateways own their batch queues), so
// it is rejected.
func (f *Fleet) Apply(a *Assignment) error {
	if len(a.Groups) != len(f.assign.Groups) {
		return errors.New("fleet: assignment grouping changed; rebuild the fleet")
	}
	for gi, g := range a.Groups {
		cur := f.assign.Groups[gi].Classes
		if len(g.Classes) != len(cur) {
			return errors.New("fleet: assignment grouping changed; rebuild the fleet")
		}
		for i, ci := range g.Classes {
			if ci != cur[i] {
				return errors.New("fleet: assignment grouping changed; rebuild the fleet")
			}
		}
	}
	for gi, g := range a.Groups {
		if err := f.gws[gi].Reconfigure(g.Config); err != nil {
			return fmt.Errorf("fleet: group %d: %w", gi, err)
		}
	}
	f.assign = a
	return nil
}

// NextFlushDeadline returns the earliest batch-timeout deadline across
// every group's shards, for VirtualTimers drivers.
func (f *Fleet) NextFlushDeadline() (float64, bool) {
	min, ok := 0.0, false
	for _, g := range f.gws {
		if d, due := g.NextFlushDeadline(); due && (!ok || d < min) {
			min, ok = d, true
		}
	}
	return min, ok
}

// FlushDue dispatches every due virtual batch timeout, group by group in
// group order, and returns the number of batches flushed.
func (f *Fleet) FlushDue() int {
	n := 0
	for _, g := range f.gws {
		n += g.FlushDue()
	}
	return n
}

// Stop shuts every group gateway down, in group order. Idempotent.
func (f *Fleet) Stop() {
	for _, g := range f.gws {
		g.Stop()
	}
}

// GroupStats pairs one group's identity with its gateway stats.
type GroupStats struct {
	Classes []string      `json:"classes"`
	SLO     float64       `json:"slo_s"`
	Profile string        `json:"profile"`
	Config  lambda.Config `json:"config"`
	Stats   gateway.Stats `json:"stats"`
}

// Stats is the fleet-wide stats document: per-group breakdowns (in group
// order — a deterministic reduction) plus cross-group totals.
type Stats struct {
	Groups         []GroupStats `json:"groups"`
	Served         int          `json:"served"`
	FailedRequests int          `json:"failed_requests"`
	TotalCostUSD   float64      `json:"total_cost_usd"`
}

// Stats merges every group's stats in group order.
func (f *Fleet) Stats() Stats {
	var out Stats
	for gi, g := range f.gws {
		grp := f.assign.Groups[gi]
		names := make([]string, len(grp.Classes))
		for i, ci := range grp.Classes {
			names[i] = f.plan.Classes[ci].Name
		}
		st := g.Stats()
		out.Groups = append(out.Groups, GroupStats{
			Classes: names,
			SLO:     grp.SLO,
			Profile: grp.Profile,
			Config:  g.Config(),
			Stats:   st,
		})
		out.Served += st.Served
		out.FailedRequests += st.FailedRequests
		out.TotalCostUSD += st.TotalCostUSD
	}
	return out
}

// Handler returns the fleet's HTTP front door:
//
//	POST /infer?class=<name>   route one request to its class's group
//	GET  /stats                the fleet Stats document
//	GET  /config               per-group serving configurations
//	GET  /metrics?group=<i>    one group's Prometheus exposition
//	GET  /metrics.json?group=<i>  one group's JSON snapshot + events
//
// The group parameter defaults to 0 — for a 1-class plan the endpoints read
// exactly like the single gateway's.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", f.handleInfer)
	mux.HandleFunc("/stats", f.handleStats)
	mux.HandleFunc("/config", f.handleConfig)
	mux.HandleFunc("/metrics", f.handleGroup)
	mux.HandleFunc("/metrics.json", f.handleGroup)
	return mux
}

func (f *Fleet) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("class")
	class := 0
	if name != "" {
		class = f.ClassIndex(name)
		if class < 0 {
			http.Error(w, "unknown class "+strconv.Quote(name), http.StatusNotFound)
			return
		}
	} else if len(f.plan.Classes) > 1 {
		http.Error(w, "class parameter required", http.StatusBadRequest)
		return
	}
	resp := f.Do(class)
	if r.Context().Err() != nil {
		return // client went away while the request was batched
	}
	gateway.WriteResponse(w, resp)
}

func (f *Fleet) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(f.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (f *Fleet) handleConfig(w http.ResponseWriter, r *http.Request) {
	configs := make([]lambda.Config, len(f.gws))
	for gi, g := range f.gws {
		configs[gi] = g.Config()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(configs); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// groupParam resolves the ?group= query (default 0).
func (f *Fleet) groupParam(r *http.Request) (int, error) {
	q := r.URL.Query().Get("group")
	if q == "" {
		return 0, nil
	}
	gi, err := strconv.Atoi(q)
	if err != nil || gi < 0 || gi >= len(f.gws) {
		return 0, fmt.Errorf("bad group %q (have %d groups)", q, len(f.gws))
	}
	return gi, nil
}

// handleGroup serves /metrics and /metrics.json for one group (?group=<i>)
// from that group's own gateway handler.
func (f *Fleet) handleGroup(w http.ResponseWriter, r *http.Request) {
	gi, err := f.groupParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.gws[gi].Handler().ServeHTTP(w, r)
}
