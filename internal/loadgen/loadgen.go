// Package loadgen drives an in-process gateway with concurrent clients on
// the wall clock and reports throughput, tail latency, and goodput — the
// SLO-satisfying request rate, which is the figure DeepBAT actually
// optimizes for (a gateway that answers fast but past its SLO earns no
// goodput).
//
// The one loop is closed: C concurrent clients, each issuing its next
// request as soon as the previous one completes — the classic saturation
// benchmark, and the mode the loadgen-smoke CI check runs. Deterministic
// open-loop figures (a trace's arrivals on virtual time) belong to
// internal/replay.
//
// In keeping with the noprint rule, this package only returns Report
// values; rendering belongs to cmd/loadgen.
package loadgen

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/stats"
)

// Config parameterizes one load run against a fresh gateway.
type Config struct {
	// Initial is the serving configuration (zero value: 2048 MB, B=1).
	Initial lambda.Config
	// Shards is the gateway shard count (0 = 1).
	Shards int
	// SLO is the latency objective goodput is judged against, in seconds.
	SLO float64
	// Clients is the concurrency (0 = 1).
	Clients int
	// Requests is the per-client request budget (0 = until Duration).
	Requests int
	// Duration bounds the run in wall time (0 = until Requests). At least
	// one of Requests/Duration must be set.
	Duration time.Duration
	// Seed drives the fault injection.
	Seed int64
	// FaultErrorRate injects backend failures at this rate (0 = none),
	// seeded by Seed, through a fault.FaultyBackend.
	FaultErrorRate float64
}

// Report is the outcome of one run. All latency figures are wall-clock
// milliseconds.
type Report struct {
	Shards        int     `json:"shards"`
	Requests      int     `json:"requests"` // issued
	Served        int     `json:"served"`   // answered without error
	Failed        int     `json:"failed"`   // answered with an error
	ElapsedS      float64 `json:"elapsed_s"`
	ThroughputRPS float64 `json:"throughput_rps"` // served / elapsed
	GoodputRPS    float64 `json:"goodput_rps"`    // served within SLO / elapsed
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	TotalCostUSD  float64 `json:"total_cost_usd"`
}

// build constructs the gateway under test, on the wall clock.
func (c Config) build() (*gateway.Gateway, error) {
	initial := c.Initial
	if !initial.Valid() {
		initial = lambda.Config{MemoryMB: 2048, BatchSize: 1}
	}
	var backend gateway.Backend = gateway.SimulatedBackend{
		Profile: lambda.DefaultProfile(),
		Pricing: lambda.DefaultPricing(),
	}
	if p := (fault.Plan{Seed: c.Seed, ErrorRate: c.FaultErrorRate}); p.Active() {
		backend = &fault.FaultyBackend{Inner: backend, Inj: fault.NewInjector(p)}
	}
	return gateway.New(backend, nil, gateway.Config{
		Initial: initial,
		SLO:     c.SLO,
		Shards:  c.Shards,
	})
}

// tally folds one run's responses into the report skeleton.
type tally struct {
	latMS  []float64
	served int
	failed int
	good   int
}

// observe runs once per response on the driver goroutine, between a
// request completing and the next being issued — measurement overhead that
// must not pollute the latencies it records.
func (t *tally) observe(resp gateway.Response, sloMS float64) {
	if resp.Error != "" {
		t.failed++
		return
	}
	t.served++
	t.latMS = append(t.latMS, resp.LatencyMS)
	if sloMS <= 0 || resp.LatencyMS <= sloMS {
		t.good++
	}
}

func (t *tally) report(shards int, elapsedS, costUSD float64) Report {
	r := Report{
		Shards:       shards,
		Requests:     t.served + t.failed,
		Served:       t.served,
		Failed:       t.failed,
		ElapsedS:     elapsedS,
		TotalCostUSD: costUSD,
	}
	if elapsedS > 0 {
		r.ThroughputRPS = float64(t.served) / elapsedS
		r.GoodputRPS = float64(t.good) / elapsedS
	}
	r.P50MS, _ = stats.Percentile(t.latMS, 50)
	r.P95MS, _ = stats.Percentile(t.latMS, 95)
	r.P99MS, _ = stats.Percentile(t.latMS, 99)
	return r
}

// RunClosed runs the closed loop: Clients workers on the wall clock, each
// issuing its next request the moment the previous one returns, until the
// per-client request budget or the duration budget is exhausted.
func RunClosed(c Config) (Report, error) {
	if c.Requests <= 0 && c.Duration <= 0 {
		return Report{}, errors.New("loadgen: closed loop needs Requests or Duration")
	}
	clients := c.Clients
	if clients <= 0 {
		clients = 1
	}
	g, err := c.build()
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}
	var deadline time.Time
	if c.Duration > 0 {
		deadline = time.Now().Add(c.Duration)
	}
	// Per-worker tallies, merged in worker order after the join.
	parts := make([]tally, clients)
	sloMS := c.SLO * 1000
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for n := 0; c.Requests <= 0 || n < c.Requests; n++ {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				t.observe(g.Do(), sloMS)
			}
		}(&parts[w])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	g.Stop()
	var merged tally
	for i := range parts {
		merged.latMS = append(merged.latMS, parts[i].latMS...)
		merged.served += parts[i].served
		merged.failed += parts[i].failed
		merged.good += parts[i].good
	}
	return merged.report(g.Shards(), elapsed, g.Stats().TotalCostUSD), nil
}
