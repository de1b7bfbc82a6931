package replay

import (
	"bytes"
	"strings"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/workload"
)

func fleetTrace(t *testing.T) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Spec{
		Name: "corrburst", Hours: 1, HourSeconds: 10, Seed: 3, RateRPS: 60, Classes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func fleetPlanFor(tr *workload.Trace) fleet.Plan {
	p := fleet.Plan{Merge: true}
	slo := 0.2
	for _, name := range tr.Header.Classes {
		p.Classes = append(p.Classes, fleet.ClassSpec{Name: name, SLO: slo})
		slo *= 4
	}
	return p
}

func TestRunFleetStatic(t *testing.T) {
	tr := fleetTrace(t)
	p := fleetPlanFor(tr)
	rep, err := RunFleet(FleetConfig{Trace: tr, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(tr.Reqs) || rep.Totals.Arrivals != len(tr.Reqs) {
		t.Fatalf("requests = %d/%d, want %d", rep.Requests, rep.Totals.Arrivals, len(tr.Reqs))
	}
	if len(rep.Classes) != 2 || len(rep.Groups) != 2 {
		t.Fatalf("classes=%d groups=%d, want 2/2 (static plan, no merge_with)", len(rep.Classes), len(rep.Groups))
	}
	sum := 0
	for _, row := range rep.Classes {
		if row.Arrivals == 0 {
			t.Errorf("class %s got no traffic", row.Class)
		}
		if row.Served+row.Failed != row.Arrivals {
			t.Errorf("class %s: served %d + failed %d != arrivals %d", row.Class, row.Served, row.Failed, row.Arrivals)
		}
		if row.GoodputRPS <= 0 {
			t.Errorf("class %s has traffic but no goodput", row.Class)
		}
		sum += row.Arrivals
	}
	if sum != rep.Requests {
		t.Fatalf("per-class arrivals sum %d != %d", sum, rep.Requests)
	}
	if rep.Totals.Failed != 0 {
		t.Fatalf("clean backend failed %d requests", rep.Totals.Failed)
	}
	if rep.CostUSD <= 0 || rep.Invocations <= 0 {
		t.Fatalf("cost=%g invocations=%d, want positive", rep.CostUSD, rep.Invocations)
	}
}

// TestRunFleetDeterministic pins byte-level reproducibility: two runs of the
// same trace + plan render identical text reports, including under an
// optimizer assignment computed at different worker counts.
func TestRunFleetDeterministic(t *testing.T) {
	tr := fleetTrace(t)
	p := fleetPlanFor(tr)
	windows := make([][]float64, len(p.Classes))
	for _, rq := range tr.Reqs {
		windows[rq.Class] = append(windows[rq.Class], rq.AtS)
	}
	render := func(workers int) []byte {
		a, err := fleet.Optimize(p, windows, fleet.OptimizerConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunFleet(FleetConfig{Trace: tr, Plan: p, Assignment: a})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(1), render(4)
	if !bytes.Equal(a, b) {
		t.Errorf("fleet replay reports differ across optimizer worker counts:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), "fleet replay corrburst") {
		t.Errorf("report header missing:\n%s", a)
	}
}

// TestRunFleetMergedAssignment replays under a merged grouping and checks
// the group table reflects it.
func TestRunFleetMergedAssignment(t *testing.T) {
	tr := fleetTrace(t)
	p := fleetPlanFor(tr)
	windows := make([][]float64, len(p.Classes))
	for _, rq := range tr.Reqs {
		windows[rq.Class] = append(windows[rq.Class], rq.AtS)
	}
	a, err := fleet.Optimize(p, windows, fleet.OptimizerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFleet(FleetConfig{Trace: tr, Plan: p, Assignment: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != len(a.Groups) {
		t.Fatalf("report groups = %d, assignment has %d", len(rep.Groups), len(a.Groups))
	}
	if len(a.Groups) == 1 && !strings.Contains(rep.Groups[0].Classes, "+") {
		t.Errorf("merged group label = %q, want joined class names", rep.Groups[0].Classes)
	}
}

func TestRunFleetTimeScale(t *testing.T) {
	tr := fleetTrace(t)
	p := fleetPlanFor(tr)
	full, err := RunFleet(FleetConfig{Trace: tr, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	half, err := RunFleet(FleetConfig{Trace: tr, Plan: p, TimeScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if half.DurationS >= full.DurationS {
		t.Fatalf("scale 2 duration %.2f not below scale 1 duration %.2f", half.DurationS, full.DurationS)
	}
}

func TestRunFleetErrors(t *testing.T) {
	tr := fleetTrace(t)
	if _, err := RunFleet(FleetConfig{Plan: fleetPlanFor(tr)}); err == nil {
		t.Error("want error for nil trace")
	}
	empty := *tr
	empty.Reqs = nil
	if _, err := RunFleet(FleetConfig{Trace: &empty, Plan: fleetPlanFor(tr)}); err == nil {
		t.Error("want error for empty trace")
	}
	// A trace class the plan does not serve is a configuration error.
	short := fleet.Plan{Classes: []fleet.ClassSpec{{Name: tr.Header.Classes[0], SLO: 0.2}}}
	if _, err := RunFleet(FleetConfig{Trace: tr, Plan: short}); err == nil ||
		!strings.Contains(err.Error(), "not a plan class") {
		t.Errorf("missing class = %v, want routing error", err)
	}
	// An invalid plan is rejected before any replay work.
	bad := fleetPlanFor(tr)
	bad.Classes[0].SLO = -1
	if _, err := RunFleet(FleetConfig{Trace: tr, Plan: bad}); err == nil {
		t.Error("want error for invalid plan")
	}
}

func TestRunFleetWithCache(t *testing.T) {
	tr := fleetTrace(t)
	p := fleetPlanFor(tr)
	cache := workload.NewCache()
	a, err := RunFleet(FleetConfig{Trace: tr, Plan: p, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(FleetConfig{Trace: tr, Plan: p, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest != b.TraceDigest || a.TraceDigest == "" {
		t.Fatalf("cached digests %q vs %q", a.TraceDigest, b.TraceDigest)
	}
}

// TestRunAndRunFleetAgree is the differential check the shared driver makes
// cheap: a one-class trace through Run and through RunFleet with the
// equivalent one-class plan (same configuration, one shard, the plan's
// mandatory SLO) must agree exactly on everything both reports state — with
// a clean backend and under one fault plan with retries.
func TestRunAndRunFleetAgree(t *testing.T) {
	tr := testTrace(t, "azure")
	initial := lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	const slo = 0.1
	cases := []struct {
		name    string
		fault   fault.Plan
		retries int
	}{
		{name: "clean"},
		{name: "faults-and-retries", fault: fault.Plan{Seed: 3, ErrorRate: 0.2, StragglerRate: 0.1}, retries: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			one, err := Run(Config{
				Trace: tr, Initial: initial, Shards: 1, SLO: slo,
				Fault:      tc.fault,
				Resilience: gateway.Resilience{MaxRetries: tc.retries},
			})
			if err != nil {
				t.Fatal(err)
			}
			spec := fleet.ClassSpec{
				Name: tr.Header.Classes[0], SLO: slo, Shards: 1,
				Initial: &fleet.ConfigSpec{MemoryMB: initial.MemoryMB, BatchSize: initial.BatchSize, TimeoutS: initial.TimeoutS},
			}
			if tc.retries > 0 {
				spec.Resilience = &fleet.ResilienceSpec{MaxRetries: tc.retries}
			}
			many, err := runFleet(FleetConfig{Trace: tr, Plan: fleet.Plan{Classes: []fleet.ClassSpec{spec}}}, tc.fault)
			if err != nil {
				t.Fatal(err)
			}
			type totals struct {
				served, failed, invocations int
				costUSD, goodRPS            float64
				p50, p95, p99               float64
			}
			a := totals{one.Totals.Served, one.Totals.Failed, one.Invocations,
				one.CostUSD, one.Totals.GoodputRPS, one.Totals.P50MS, one.Totals.P95MS, one.Totals.P99MS}
			b := totals{many.Totals.Served, many.Totals.Failed, many.Invocations,
				many.CostUSD, many.Totals.GoodputRPS, many.Totals.P50MS, many.Totals.P95MS, many.Totals.P99MS}
			if a != b {
				t.Fatalf("Run and RunFleet disagree:\n   Run: %+v\n fleet: %+v", a, b)
			}
			if tc.retries > 0 && a.failed == 0 {
				t.Fatal("20% errors with one retry failed nothing: the fault plan never reached the backend")
			}
			if a.served+a.failed != len(tr.Reqs) {
				t.Fatalf("served %d + failed %d != %d requests", a.served, a.failed, len(tr.Reqs))
			}
		})
	}
}
