// Package loadgen drives an in-process gateway with synthetic traffic and
// reports throughput, tail latency, and goodput — the SLO-satisfying
// request rate, which is the figure DeepBAT actually optimizes for (a
// gateway that answers fast but past its SLO earns no goodput).
//
// Two loops are provided. The closed loop runs C concurrent clients on the
// wall clock, each issuing its next request as soon as the previous one
// completes — the classic saturation benchmark, and the mode the
// loadgen-smoke CI check runs. The open loop is internal/replay's
// virtual-time driver over a seeded Poisson trace built in memory,
// single-threaded and fully deterministic: the same seed produces
// byte-identical reports across runs and machines, which is what makes the
// shard-sweep tables reproducible.
//
// In keeping with the noprint rule, this package only returns Report
// values; rendering belongs to cmd/loadgen.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/replay"
	"deepbat/internal/stats"
	"deepbat/internal/workload"
)

// Config parameterizes one load run against a fresh gateway.
type Config struct {
	// Initial is the serving configuration (zero value: 2048 MB, B=1).
	Initial lambda.Config
	// Shards is the gateway shard count (0 = 1).
	Shards int
	// SLO is the latency objective goodput is judged against, in seconds.
	SLO float64
	// Clients is the closed-loop concurrency (0 = 1).
	Clients int
	// Requests is the request budget: per client for the closed loop
	// (0 = until Duration), total for the open loop (required there).
	Requests int
	// Duration bounds the closed loop in wall time (0 = until Requests).
	// At least one of Requests/Duration must be set for the closed loop.
	Duration time.Duration
	// RateRPS is the open-loop Poisson arrival rate (required there).
	RateRPS float64
	// Seed drives the open-loop arrival process and any fault injection.
	Seed int64
	// FaultErrorRate injects backend failures at this rate (0 = none),
	// seeded by Seed, through a fault.FaultyBackend.
	FaultErrorRate float64
}

// Report is the outcome of one run. All latency figures are milliseconds on
// the gateway's clock (wall for closed loop, virtual for open loop).
type Report struct {
	Mode string `json:"mode"` // "closed" | "open"
	// Class labels per-class rows in fleet runs (empty for single-gateway
	// runs and for fleet totals).
	Class         string  `json:"class,omitempty"`
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

func (c Config) initial() lambda.Config {
	if c.Initial.Valid() {
		return c.Initial
	}
	return lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0}
}

// faultPlan is the backend fault schedule both loops inject (inactive at
// FaultErrorRate 0).
func (c Config) faultPlan() fault.Plan {
	return fault.Plan{Seed: c.Seed, ErrorRate: c.FaultErrorRate}
}

// build constructs the closed loop's gateway under test, on the wall clock.
func (c Config) build() (*gateway.Gateway, error) {
	var backend gateway.Backend = gateway.SimulatedBackend{
		Profile: lambda.DefaultProfile(),
		Pricing: lambda.DefaultPricing(),
	}
	if p := c.faultPlan(); p.Active() {
		backend = &fault.FaultyBackend{Inner: backend, Inj: fault.NewInjector(p)}
	}
	return gateway.New(backend, nil, gateway.Config{
		Initial: c.initial(),
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
		Mode:         "closed",
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

// poissonTrace builds the open loops' arrival stream as an in-memory tracev1:
// the first n arrivals of one Poisson process per class — class i at
// rates[i] req/s (0 = idle) from its own rng seeded seeds[i] — merged by
// arrival time, ties to the lower class index. The header's zero horizon
// makes the replayed duration the last arrival's timestamp.
func poissonTrace(seed int64, classes []string, rates []float64, seeds []int64, n int) *workload.Trace {
	spec := workload.Spec{Name: "poisson", Seed: seed}
	tr := &workload.Trace{
		Header: workload.Header{Version: workload.Version, Name: spec.Name, Seed: seed, Spec: spec, Classes: classes},
		Reqs:   make([]workload.Request, 0, n),
	}
	rngs := make([]*rand.Rand, len(classes))
	next := make([]float64, len(classes))
	for i, rate := range rates {
		if rate > 0 {
			rngs[i] = rand.New(rand.NewSource(seeds[i]))
			next[i] = rngs[i].ExpFloat64() / rate
		}
	}
	for len(tr.Reqs) < n {
		ci := -1
		for i := range rngs {
			if rngs[i] != nil && (ci < 0 || next[i] < next[ci]) {
				ci = i
			}
		}
		tr.Reqs = append(tr.Reqs, workload.Request{AtS: next[ci], Class: uint8(ci)})
		next[ci] += rngs[ci].ExpFloat64() / rates[ci]
	}
	return tr
}

// openReplay validates the open-loop fields and returns the replay the run
// is: Requests Poisson arrivals at RateRPS through a fresh gateway on virtual
// time.
func (c Config) openReplay() (replay.Config, error) {
	if c.Requests <= 0 {
		return replay.Config{}, errors.New("loadgen: open loop needs Requests")
	}
	if c.RateRPS <= 0 {
		return replay.Config{}, errors.New("loadgen: open loop needs RateRPS")
	}
	return replay.Config{
		Trace:   poissonTrace(c.Seed, []string{"open"}, []float64{c.RateRPS}, []int64{c.Seed}, c.Requests),
		Initial: c.initial(),
		Shards:  c.Shards,
		SLO:     c.SLO,
		Fault:   c.faultPlan(),
	}, nil
}

// RunOpen replays a seeded Poisson arrival process — Requests arrivals at
// RateRPS — through replay.Run: submitted single-threaded in arrival order
// on a manual clock, batches dispatching by size or by their virtual
// timeout, service time charged to the same clock, the final partial batches
// flushed at Stop. The run is fully deterministic — same Config, same
// Report — across runs, machines, and GOMAXPROCS values, which is what makes
// shard-sweep tables comparable.
func RunOpen(c Config) (Report, error) {
	rc, err := c.openReplay()
	if err != nil {
		return Report{}, err
	}
	rep, err := replay.Run(rc)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}
	t := rep.Totals
	return Report{
		Mode:          "open",
		Shards:        rep.Shards,
		Requests:      t.Arrivals,
		Served:        t.Served,
		Failed:        t.Failed,
		ElapsedS:      t.EndS,
		ThroughputRPS: t.ThroughputRPS,
		GoodputRPS:    t.GoodputRPS,
		P50MS:         t.P50MS,
		P95MS:         t.P95MS,
		P99MS:         t.P99MS,
		TotalCostUSD:  rep.CostUSD,
	}, nil
}
