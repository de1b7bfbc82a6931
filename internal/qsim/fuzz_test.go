package qsim

import (
	"encoding/binary"
	"math"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/lambda"
)

// decodeArrivals turns fuzz bytes into a nondecreasing timestamp sequence.
func decodeArrivals(data []byte) []float64 {
	var ts []float64
	t := 0.0
	for len(data) >= 2 {
		gap := float64(binary.LittleEndian.Uint16(data)) / 1e4 // 0..6.5535s
		data = data[2:]
		t += gap
		ts = append(ts, t)
	}
	return ts
}

// FuzzRun drives the simulator with arbitrary arrival gaps, grid-clamped
// configurations, and seeded fault schedules, checking structural
// invariants: every request is either served or marked failed exactly once,
// surviving latencies are at least the batch service floor, surviving costs
// are at least the per-request fee share, and failed requests are free.
func FuzzRun(f *testing.F) {
	f.Add([]byte{10, 0, 20, 0, 30, 0, 40, 0}, uint16(2048), uint8(4), uint16(50), uint8(0), uint8(0), int64(0))
	f.Add([]byte{0, 0, 0, 0}, uint16(128), uint8(1), uint16(0), uint8(0), uint8(0), int64(0))
	f.Add([]byte{255, 255, 1, 0}, uint16(10240), uint8(64), uint16(1000), uint8(0), uint8(0), int64(0))
	// Fault-schedule corpus: moderate and total error rates, with and
	// without retry budget, plus straggler/spike-heavy mixes.
	f.Add([]byte{10, 0, 20, 0, 30, 0, 40, 0}, uint16(2048), uint8(2), uint16(50), uint8(30), uint8(2), int64(7))
	f.Add([]byte{5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0}, uint16(1024), uint8(4), uint16(20), uint8(100), uint8(0), int64(1))
	f.Add([]byte{50, 0, 50, 0, 50, 0, 50, 0}, uint16(3008), uint8(8), uint16(200), uint8(55), uint8(5), int64(-3))
	f.Fuzz(func(t *testing.T, raw []byte, mem uint16, batch uint8, timeoutMS uint16,
		errPct uint8, retryMax uint8, faultSeed int64) {
		ts := decodeArrivals(raw)
		if len(ts) == 0 {
			return
		}
		cfg := lambda.Config{
			MemoryMB:  lambda.ClampMemory(float64(mem)),
			BatchSize: int(batch%64) + 1,
			TimeoutS:  float64(timeoutMS) / 1000,
		}
		s := New(lambda.DefaultProfile(), lambda.DefaultPricing())
		if errPct > 0 {
			s.Opts.Fault = &fault.Plan{
				Seed:          faultSeed,
				ErrorRate:     float64(errPct%101) / 100,
				StragglerRate: float64(errPct%7) / 10,
				ColdSpikeRate: float64(errPct%3) / 10,
			}
			s.Opts.Retry = fault.Retry{Max: int(retryMax % 8), BaseS: 0.001, CapS: 0.01}
		}
		res, err := s.Run(ts, cfg)
		if err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		if len(res.Latencies) != len(ts) {
			t.Fatalf("served %d of %d", len(res.Latencies), len(ts))
		}
		served := 0
		failedReqs := 0
		for _, b := range res.Batches {
			served += b.Size
			if b.Size < 1 || b.Size > cfg.BatchSize {
				t.Fatalf("batch size %d out of [1, %d]", b.Size, cfg.BatchSize)
			}
			if b.Failed {
				failedReqs += b.Size
				if b.Cost > 0 {
					t.Fatalf("failed batch billed: %+v", b)
				}
			}
			if b.Attempts < 1 {
				t.Fatalf("batch consumed %d attempts", b.Attempts)
			}
		}
		if served != len(ts) {
			t.Fatalf("batches cover %d of %d requests", served, len(ts))
		}
		if failedReqs != res.FailedRequests {
			t.Fatalf("failed batches cover %d requests, Result says %d", failedReqs, res.FailedRequests)
		}
		isFailed := func(i int) bool { return res.Failed != nil && res.Failed[i] }
		minSvc := s.Profile.ServiceTime(cfg.MemoryMB, 1)
		for i, lat := range res.Latencies {
			if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
				t.Fatalf("latency[%d] = %v", i, lat)
			}
			if !isFailed(i) && lat < minSvc-1e-9 {
				t.Fatalf("latency[%d] = %v below service floor %v", i, lat, minSvc)
			}
		}
		minFee := s.Pricing.PerRequestUSD / float64(cfg.BatchSize)
		for i, c := range res.PerRequestCost {
			if isFailed(i) {
				if c > 0 {
					t.Fatalf("failed request %d billed %v", i, c)
				}
				continue
			}
			if c < minFee-1e-18 {
				t.Fatalf("cost[%d] = %v below fee share %v", i, c, minFee)
			}
		}
	})
}

// FuzzGroundTruthBest is the scoring search's differential fuzz test: over
// fuzzed gaps (zero gaps give simultaneous arrivals), a fuzzed percentile,
// and an SLO either fuzzed outright or put on, or one ulp either side of,
// one config's exact tail, the search at Workers 1 and 2 must choose and
// score what the per-config-Run search does on the ragged grid.
func FuzzGroundTruthBest(f *testing.F) {
	f.Add([]byte{10, 0, 20, 0, 30, 0, 40, 0}, uint16(100), uint8(95), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0}, uint16(0), uint8(50), uint8(1), uint8(7))
	f.Add([]byte{255, 255, 1, 0, 0, 0, 9, 0, 200, 1}, uint16(40000), uint8(100), uint8(4), uint8(3))
	f.Add([]byte{5, 0}, uint16(1), uint8(0), uint8(3), uint8(11))
	f.Fuzz(func(t *testing.T, raw []byte, sloMS uint16, pctRaw uint8, mode, pick uint8) {
		ts := decodeArrivals(raw)
		if len(ts) == 0 {
			return
		}
		grid := raggedGrid()
		configs := grid.Configs()
		pct := float64(pctRaw % 101)
		slo := float64(sloMS) / 1000
		if mode%4 > 0 {
			res, err := sim().Run(ts, configs[int(pick)%len(configs)])
			if err != nil {
				t.Fatal(err)
			}
			slo = res.LatencyPercentile(pct)
			switch mode % 4 {
			case 1:
				slo = math.Nextafter(slo, math.Inf(-1))
			case 3:
				slo = math.Nextafter(slo, math.Inf(1))
			}
		}
		ref := sim()
		ref.Opts.Workers = 1
		want, wantRes, err := ref.searchByRun(ts, configs, slo, pct)
		if err != nil {
			t.Fatal(err)
		}
		wantTail := wantRes.LatencyPercentile(pct)
		wantScore := Score{TotalCost: wantRes.TotalCost, Tail: wantTail, Feasible: !(wantTail > slo)}
		for _, w := range []int{1, 2} {
			s := sim()
			s.Opts.Workers = w
			got, score, err := s.GroundTruthBest(ts, grid, slo, pct)
			if err != nil {
				t.Fatal(err)
			}
			if got != configs[want] || !sameScore(score, wantScore) {
				t.Fatalf("n=%d slo=%v pct=%v workers=%d: chose %v %+v, per-config Runs chose %v %+v",
					len(ts), slo, pct, w, got, score, configs[want], wantScore)
			}
		}
	})
}
