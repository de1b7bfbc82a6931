package replay

import (
	"bytes"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/workload"
)

func testTrace(t *testing.T, name string) *workload.Trace {
	t.Helper()
	spec := workload.DefaultSpec(name)
	spec.Hours, spec.HourSeconds = 2, 10
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func render(t *testing.T, r Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportByteIdentical is the core replay contract: the same trace and
// config produce byte-identical rendered reports across runs — including
// with sharding, fault injection, and retries on.
func TestReportByteIdentical(t *testing.T) {
	tr := testTrace(t, "flashcrowd")
	cfg := Config{
		Trace:      tr,
		Shards:     4,
		SLO:        0.1,
		WindowS:    5,
		Fault:      fault.Plan{Seed: 3, ErrorRate: 0.1, StragglerRate: 0.1},
		Resilience: gateway.Resilience{MaxRetries: 1},
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := render(t, r1), render(t, r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same trace + config, different reports:\n%s\n---\n%s", b1, b2)
	}
	if r1.Totals.Served+r1.Totals.Failed != len(tr.Reqs) {
		t.Fatalf("served %d + failed %d != %d requests",
			r1.Totals.Served, r1.Totals.Failed, len(tr.Reqs))
	}
	if r1.Totals.Failed == 0 {
		t.Fatal("expected some failures at 10% error rate with one retry")
	}
	if r1.Totals.GoodputRPS <= 0 {
		t.Fatalf("no goodput: %+v", r1.Totals)
	}
}

// TestVirtualTimeoutsFire pins that the virtual-timer path actually
// dispatches by timeout: sparse arrivals against a large batch size must
// produce timeout dispatches (not just the Stop flush), observable on the
// gateway_dispatch_timeout_total counter, in every request being served,
// and in a p99 above the timer but within the timer plus a full batch's
// service time.
func TestVirtualTimeoutsFire(t *testing.T) {
	tr := testTrace(t, "azure")
	reg := obs.NewRegistry()
	initial := lambda.Config{MemoryMB: 2048, BatchSize: 64, TimeoutS: 0.05}
	r, err := Run(Config{
		Trace:   tr,
		Initial: initial,
		Shards:  1,
		SLO:     0.5,
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Totals.Served != len(tr.Reqs) {
		t.Fatalf("served %d of %d", r.Totals.Served, len(tr.Reqs))
	}
	maxMS := 1000 * (initial.TimeoutS + lambda.DefaultProfile().ServiceTime(initial.MemoryMB, initial.BatchSize))
	if p99 := r.Totals.P99MS; p99 <= 1000*initial.TimeoutS || p99 > maxMS {
		t.Fatalf("p99 = %.1f ms, want above the %.0f ms timer and at most %.1f ms", p99, 1000*initial.TimeoutS, maxMS)
	}
	timeouts := -1.0
	for _, s := range reg.Snapshot().Series {
		if s.Name == "gateway_dispatch_timeout_total" {
			timeouts = s.Value
		}
	}
	if timeouts < 0 {
		t.Fatal("snapshot missing gateway_dispatch_timeout_total")
	}
	if timeouts < 1 {
		t.Fatal("no timeout dispatches: the virtual-timer path never fired")
	}
}

// TestTimeScaleCompresses pins the -scale semantics: doubling TimeScale
// halves the replayed horizon and roughly doubles offered load.
func TestTimeScaleCompresses(t *testing.T) {
	tr := testTrace(t, "sizemix")
	base, err := Run(Config{Trace: tr, Shards: 1, SLO: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(Config{Trace: tr, Shards: 1, SLO: 0.1, TimeScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Totals.EndS >= base.Totals.EndS {
		t.Fatalf("scale 2 horizon %.2fs not shorter than %.2fs", fast.Totals.EndS, base.Totals.EndS)
	}
	if fast.Totals.ThroughputRPS <= base.Totals.ThroughputRPS {
		t.Fatalf("scale 2 throughput %.2f not above %.2f",
			fast.Totals.ThroughputRPS, base.Totals.ThroughputRPS)
	}
}

// TestLatencyNonNegative guards the clock discipline: the driver moves the
// manual clock backwards after service advances, which is only sound if
// every response's latency stays non-negative. At every shard count the
// report states, every request is served.
func TestLatencyNonNegative(t *testing.T) {
	tr := testTrace(t, "corrburst")
	for _, p := range []int{1, 2, 8} {
		r, err := Run(Config{Trace: tr, Shards: p, SLO: 0.1, WindowS: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range r.Windows {
			if w.P50MS < 0 || w.P99MS < 0 {
				t.Fatalf("P=%d: negative latency in window starting %.1fs: p50=%.3f p99=%.3f",
					p, w.StartS, w.P50MS, w.P99MS)
			}
		}
		if r.Shards != p || r.Totals.Served != len(tr.Reqs) {
			t.Fatalf("P=%d: report says %d shards, served %d of %d", p, r.Shards, r.Totals.Served, len(tr.Reqs))
		}
	}
}

// TestRunAllocBudget holds a replay to about one allocation per request:
// the gateway waiter each request keeps until the report fold (a closed loop
// that waits before it submits again recycles it instead; see
// TestDoZeroAllocSteadyState). The response channel per waiter and the
// clone-and-sort per percentile are gone; either coming back breaks the
// budget.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	tr := testTrace(t, "flashcrowd")
	c := Config{Trace: tr, Shards: 1, SLO: 0.1, WindowS: 1, Cache: workload.NewCache()}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 1.1*float64(len(tr.Reqs)) + 200; allocs > budget {
		t.Errorf("Run allocates %.0f objects for %d requests, budget %.0f", allocs, len(tr.Reqs), budget)
	}
	t.Logf("%.0f allocations for %d requests (%.3f per request)", allocs, len(tr.Reqs), allocs/float64(len(tr.Reqs)))
}

// TestRunValidation pins the error paths.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil trace accepted")
	}
	empty := &workload.Trace{Header: workload.Header{
		Version: workload.Version, Name: "x",
		Spec:    workload.Spec{Name: "x", Hours: 1, HourSeconds: 1},
		Classes: []string{"a"},
	}}
	if _, err := Run(Config{Trace: empty}); err == nil {
		t.Fatal("empty trace accepted")
	}
}
