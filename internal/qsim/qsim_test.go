package qsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepbat/internal/arrival"
	"deepbat/internal/lambda"
)

func sim() *Simulator {
	return New(lambda.DefaultProfile(), lambda.DefaultPricing())
}

func cfg(m float64, b int, t float64) lambda.Config {
	return lambda.Config{MemoryMB: m, BatchSize: b, TimeoutS: t}
}

func TestRunEmptyTrace(t *testing.T) {
	if _, err := sim().Run(nil, cfg(1024, 4, 0.1)); err != ErrNoArrivals {
		t.Fatalf("err = %v, want ErrNoArrivals", err)
	}
}

func TestRunInvalidConfig(t *testing.T) {
	if _, err := sim().Run([]float64{1}, cfg(1024, 0, 0.1)); err == nil {
		t.Fatal("expected invalid-config error")
	}
}

// unorderedWindows are arrival windows that break the nondecreasing
// contract: a step back, a NaN first, in the middle and last.
func unorderedWindows() map[string][]float64 {
	nan := math.NaN()
	return map[string][]float64{
		"decreasing": {0, 0.02, 0.01, 0.03},
		"NaN first":  {nan, 0.01},
		"NaN inside": {0, 0.01, nan, 0.03},
		"NaN last":   {0, 0.01, nan},
	}
}

func TestRunRejectsUnorderedArrivals(t *testing.T) {
	for name, ts := range unorderedWindows() {
		if _, err := sim().Run(ts, cfg(1024, 4, 0.1)); !errors.Is(err, ErrArrivalOrder) {
			t.Errorf("%s: err = %v, want ErrArrivalOrder", name, err)
		}
	}
	// Equal timestamps and infinities are ordered.
	if _, err := sim().Run([]float64{0, 0, 0.5, math.Inf(1)}, cfg(1024, 4, 0.1)); err != nil {
		t.Fatalf("nondecreasing window rejected: %v", err)
	}
}

func TestGroundTruthBestRejectsUnorderedArrivals(t *testing.T) {
	for name, ts := range unorderedWindows() {
		for _, s := range []*Simulator{sim(), func() *Simulator { s := sim(); s.Opts.MaxConcurrency = 1; return s }()} {
			if _, _, err := s.GroundTruthBest(ts, lambda.DefaultGrid(), 0.1, 95); !errors.Is(err, ErrArrivalOrder) {
				t.Errorf("%s (stateful %v): err = %v, want ErrArrivalOrder", name, s.stateful(), err)
			}
		}
	}
}

func TestBatchFillsByCount(t *testing.T) {
	// Four arrivals in quick succession, B=4, long timeout: one batch
	// dispatched at the 4th arrival.
	s := sim()
	ts := []float64{0.00, 0.01, 0.02, 0.03}
	res, err := s.Run(ts, cfg(2048, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || res.Batches[0].Size != 4 {
		t.Fatalf("batches = %+v", res.Batches)
	}
	if res.Batches[0].DispatchAt != 0.03 {
		t.Fatalf("dispatch at %v, want 0.03", res.Batches[0].DispatchAt)
	}
	svc := s.Profile.ServiceTime(2048, 4)
	// First request waited 0.03, then service.
	if math.Abs(res.Latencies[0]-(0.03+svc)) > 1e-12 {
		t.Fatalf("latency[0] = %v", res.Latencies[0])
	}
	// Last request waited 0.
	if math.Abs(res.Latencies[3]-svc) > 1e-12 {
		t.Fatalf("latency[3] = %v", res.Latencies[3])
	}
}

func TestBatchFlushesByTimeout(t *testing.T) {
	s := sim()
	// Two arrivals then silence; B=8 never fills, flush at T.
	ts := []float64{0.00, 0.02, 5.0}
	res, err := s.Run(ts, cfg(2048, 8, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(res.Batches))
	}
	if res.Batches[0].Size != 2 || math.Abs(res.Batches[0].DispatchAt-0.1) > 1e-12 {
		t.Fatalf("first batch = %+v", res.Batches[0])
	}
	if res.Batches[1].Size != 1 || math.Abs(res.Batches[1].DispatchAt-5.1) > 1e-12 {
		t.Fatalf("second batch = %+v", res.Batches[1])
	}
	svc1 := s.Profile.ServiceTime(2048, 2)
	if math.Abs(res.Latencies[0]-(0.1+svc1)) > 1e-12 {
		t.Fatalf("latency[0] = %v", res.Latencies[0])
	}
	if math.Abs(res.Latencies[1]-(0.08+svc1)) > 1e-12 {
		t.Fatalf("latency[1] = %v", res.Latencies[1])
	}
}

func TestZeroTimeoutServesIndividually(t *testing.T) {
	res, err := sim().Run([]float64{0, 0.5, 1.0}, cfg(2048, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("batches = %d, want 3 (one per request)", len(res.Batches))
	}
	for _, b := range res.Batches {
		if b.Size != 1 {
			t.Fatalf("batch size = %d, want 1", b.Size)
		}
	}
}

func TestBatchSizeOneIgnoresTimeout(t *testing.T) {
	res, err := sim().Run([]float64{0, 1, 2}, cfg(2048, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("B=1 should dispatch immediately; batches = %d", len(res.Batches))
	}
	for i, b := range res.Batches {
		if b.DispatchAt != float64(i) {
			t.Fatalf("dispatch[%d] = %v", i, b.DispatchAt)
		}
	}
}

func TestCostAccounting(t *testing.T) {
	s := sim()
	ts := []float64{0, 0.01, 0.02, 0.03}
	res, err := s.Run(ts, cfg(1024, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc := s.Profile.ServiceTime(1024, 4)
	wantInv := s.Pricing.InvocationCost(1024, svc)
	if math.Abs(res.TotalCost-wantInv) > 1e-15 {
		t.Fatalf("TotalCost = %v, want %v", res.TotalCost, wantInv)
	}
	if math.Abs(res.CostPerRequest()-wantInv/4) > 1e-15 {
		t.Fatalf("CostPerRequest = %v", res.CostPerRequest())
	}
	for _, c := range res.PerRequestCost {
		if math.Abs(c-wantInv/4) > 1e-15 {
			t.Fatalf("per-request cost = %v", c)
		}
	}
}

func TestBatchingReducesCostIncreasesLatency(t *testing.T) {
	// Fig. 1b/1c of the paper, reproduced in miniature: under the same
	// arrival stream, bigger batches/timeouts cut per-request cost but raise
	// latency.
	s := sim()
	rng := rand.New(rand.NewSource(1))
	g, err := arrival.NewGen(arrival.Poisson(100), rng)
	if err != nil {
		t.Fatal(err)
	}
	ts := g.SampleUntil(60)
	small, err := s.Run(ts, cfg(2048, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Run(ts, cfg(2048, 16, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if big.CostPerRequest() >= small.CostPerRequest() {
		t.Fatalf("batching should cut cost: %v vs %v", big.CostPerRequest(), small.CostPerRequest())
	}
	if big.LatencyPercentile(95) <= small.LatencyPercentile(95) {
		t.Fatalf("batching should raise tail latency: %v vs %v",
			big.LatencyPercentile(95), small.LatencyPercentile(95))
	}
}

func TestMoreMemoryLowersLatencyRaisesCost(t *testing.T) {
	s := sim()
	rng := rand.New(rand.NewSource(2))
	g, _ := arrival.NewGen(arrival.Poisson(50), rng)
	ts := g.SampleUntil(60)
	lo, _ := s.Run(ts, cfg(512, 4, 0.05))
	hi, _ := s.Run(ts, cfg(4096, 4, 0.05))
	if hi.LatencyPercentile(95) >= lo.LatencyPercentile(95) {
		t.Fatalf("more memory should cut latency: %v vs %v",
			hi.LatencyPercentile(95), lo.LatencyPercentile(95))
	}
	// At 8x memory the GB-second bill dominates the shorter duration here.
	if hi.CostPerRequest() <= lo.CostPerRequest() {
		t.Fatalf("8x memory should cost more: %v vs %v", hi.CostPerRequest(), lo.CostPerRequest())
	}
}

func TestColdStarts(t *testing.T) {
	s := sim()
	s.Opts.EnableColdStarts = true
	s.Opts.KeepAlive = 10
	// Three widely spaced singleton batches: first is cold; second reuses the
	// warm container; third arrives after keep-alive expiry and is cold again.
	ts := []float64{0, 5, 100}
	res, err := s.Run(ts, cfg(2048, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Batches[0].Cold || res.Batches[1].Cold || !res.Batches[2].Cold {
		t.Fatalf("cold flags = %v %v %v", res.Batches[0].Cold, res.Batches[1].Cold, res.Batches[2].Cold)
	}
	if res.Latencies[0] <= res.Latencies[1] {
		t.Fatal("cold start should add latency")
	}
}

func TestConcurrentColdStarts(t *testing.T) {
	s := sim()
	s.Opts.EnableColdStarts = true
	// Two simultaneous singleton dispatches need two containers: both cold.
	ts := []float64{0, 0}
	res, err := s.Run(ts, cfg(2048, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Batches[0].Cold || !res.Batches[1].Cold {
		t.Fatalf("both dispatches should be cold: %+v", res.Batches)
	}
}

func TestTimestampsInterarrivalsRoundTrip(t *testing.T) {
	inter := []float64{0.5, 0.2, 1.3}
	ts := Timestamps(inter)
	want := []float64{0.5, 0.7, 2.0}
	for i := range want {
		if math.Abs(ts[i]-want[i]) > 1e-12 {
			t.Fatalf("Timestamps = %v", ts)
		}
	}
	back := Interarrivals(ts)
	for i := range inter {
		if math.Abs(back[i]-inter[i]) > 1e-12 {
			t.Fatalf("Interarrivals = %v", back)
		}
	}
}

func TestEvaluateTarget(t *testing.T) {
	s := sim()
	inter := make([]float64, 100)
	for i := range inter {
		inter[i] = 0.01
	}
	tgt, err := s.Evaluate(inter, cfg(2048, 4, 0.05), []float64{50, 95})
	if err != nil {
		t.Fatal(err)
	}
	if tgt.CostPerRequest <= 0 {
		t.Fatal("cost must be positive")
	}
	if len(tgt.Percentiles) != 2 || tgt.Percentiles[0] > tgt.Percentiles[1] {
		t.Fatalf("percentiles = %v", tgt.Percentiles)
	}
	v := tgt.Vector()
	if len(v) != 3 || v[0] != tgt.CostPerRequest || v[2] != tgt.Percentiles[1] {
		t.Fatalf("Vector = %v", v)
	}
}

func TestGroundTruthBestRespectsSLO(t *testing.T) {
	s := sim()
	rng := rand.New(rand.NewSource(3))
	g, _ := arrival.NewGen(arrival.Poisson(100), rng)
	ts := g.SampleUntil(30)
	grid := lambda.DefaultGrid()
	best, score, err := s.GroundTruthBest(ts, grid, 0.1, 95)
	if err != nil {
		t.Fatal(err)
	}
	if score.Tail > 0.1 || !score.Feasible {
		t.Fatalf("ground truth violates SLO: %+v", score)
	}
	cost := score.TotalCost / float64(len(ts))
	// It must be the cheapest feasible configuration: spot-check against a
	// few other feasible ones.
	for _, c := range grid.Configs() {
		r, err := s.Run(ts, c)
		if err != nil {
			t.Fatal(err)
		}
		if r.LatencyPercentile(95) <= 0.1 && r.CostPerRequest() < cost-1e-15 {
			t.Fatalf("config %v is feasible and cheaper than chosen %v", c, best)
		}
	}
}

func TestGroundTruthBestInfeasibleFallsBack(t *testing.T) {
	s := sim()
	ts := []float64{0, 0.001, 0.002}
	// Impossible SLO: returns the configuration with the lowest tail.
	best, score, err := s.GroundTruthBest(ts, lambda.DefaultGrid(), 1e-9, 95)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Valid() || score.Feasible || !(score.Tail > 1e-9) {
		t.Fatalf("fallback should still return a configuration, scored infeasible: %v %+v", best, score)
	}
	if _, _, err := s.GroundTruthBest(nil, lambda.DefaultGrid(), 0.1, 95); err != ErrNoArrivals {
		t.Fatal("empty trace should error")
	}
}

func TestVCRAndMeanBatch(t *testing.T) {
	s := sim()
	ts := []float64{0, 0.01, 0.02, 0.03}
	res, err := s.Run(ts, cfg(2048, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBatchSize() != 2 {
		t.Fatalf("MeanBatchSize = %v", res.MeanBatchSize())
	}
	if res.VCR(1000) != 0 {
		t.Fatal("VCR with huge SLO should be 0")
	}
	if res.VCR(0) != 100 {
		t.Fatal("VCR with zero SLO should be 100")
	}
}

func TestLatencyIsWaitPlusServiceProperty(t *testing.T) {
	// Property: every latency >= service time of its batch, and every wait
	// <= timeout unless the batch filled by count.
	s := sim()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := arrival.NewGen(arrival.MMPP2(80, 2, 0.5, 0.5), rng)
		if err != nil {
			return false
		}
		ts := g.SampleUntil(20)
		if len(ts) == 0 {
			return true
		}
		c := cfg(1024, 4, 0.08)
		res, err := s.Run(ts, c)
		if err != nil {
			return false
		}
		req := 0
		for _, b := range res.Batches {
			for k := 0; k < b.Size; k++ {
				lat := res.Latencies[req]
				wait := lat - b.Service
				if wait < -1e-9 {
					return false
				}
				if b.Size < c.BatchSize && wait > c.TimeoutS+b.Service {
					return false
				}
				req++
			}
		}
		return req == len(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrencyCapQueues(t *testing.T) {
	s := sim()
	s.Opts.MaxConcurrency = 1
	// Two simultaneous singleton dispatches with a single slot: the second
	// must wait for the first to finish.
	ts := []float64{0, 0}
	res, err := s.Run(ts, cfg(2048, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	svc := s.Profile.ServiceTime(2048, 1)
	if math.Abs(res.Latencies[0]-svc) > 1e-12 {
		t.Fatalf("first latency = %v, want %v", res.Latencies[0], svc)
	}
	if math.Abs(res.Latencies[1]-2*svc) > 1e-12 {
		t.Fatalf("queued latency = %v, want %v", res.Latencies[1], 2*svc)
	}
	if res.Batches[1].StartAt <= res.Batches[1].DispatchAt {
		t.Fatal("queued batch should start after its dispatch time")
	}
}

func TestConcurrencyCapHighEqualsUnlimited(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, _ := arrival.NewGen(arrival.Poisson(50), rng)
	ts := g.SampleUntil(30)
	c := cfg(2048, 4, 0.05)

	unlimited := sim()
	r1, err := unlimited.Run(ts, c)
	if err != nil {
		t.Fatal(err)
	}
	capped := sim()
	capped.Opts.MaxConcurrency = 10000
	r2, err := capped.Run(ts, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Latencies {
		if math.Abs(r1.Latencies[i]-r2.Latencies[i]) > 1e-12 {
			t.Fatalf("latency %d differs under huge cap", i)
		}
	}
}

func TestConcurrencyCapRaisesTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, _ := arrival.NewGen(arrival.Poisson(300), rng)
	ts := g.SampleUntil(20)
	c := cfg(1024, 1, 0)

	free := sim()
	r1, err := free.Run(ts, c)
	if err != nil {
		t.Fatal(err)
	}
	tight := sim()
	tight.Opts.MaxConcurrency = 2
	r2, err := tight.Run(ts, c)
	if err != nil {
		t.Fatal(err)
	}
	if r2.LatencyPercentile(95) <= r1.LatencyPercentile(95) {
		t.Fatalf("tight cap should raise tail latency: %v vs %v",
			r2.LatencyPercentile(95), r1.LatencyPercentile(95))
	}
}

func TestSlotPoolOrdering(t *testing.T) {
	p := newSlotPool(3)
	for _, v := range []float64{5, 1, 4, 2, 9} {
		p.occupy(v)
	}
	// After 5 occupies with cap 3, the three largest end times remain and
	// the earliest of them is the next free time.
	if got := p.earliest(); got != 4 {
		t.Fatalf("earliest = %v, want 4", got)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := sim().Evaluate(nil, cfg(1024, 2, 0.1), []float64{95}); err == nil {
		t.Fatal("expected error on empty window")
	}
}
