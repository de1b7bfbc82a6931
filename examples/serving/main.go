// Serving: train DeepBAT on the first half of a diurnal day, then serve the
// second half in closed loop — the controller re-decides (M, B, T) every
// control period from the arrivals it has just seen — and compare it against
// a statically configured deployment of the same application.
package main

import (
	"fmt"
	"log"

	"deepbat"
	"deepbat/internal/stats"
)

func main() {
	const slo = 0.1

	// Train on the first half of the day, serve the second half.
	day, err := deepbat.GenerateTrace(deepbat.TraceSpec{
		Name: "azure", Hours: 12, HourSeconds: 60, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	trainTrace := day.FirstHours(6)
	serveTrace := day.LastHours(6)

	opts := deepbat.DefaultOptions()
	opts.Model.SeqLen = 32
	opts.DatasetSamples = 400
	opts.Train.Epochs = 8
	opts.SLO = slo
	fmt.Println("training on the first 6 hours...")
	sys, err := deepbat.Train(trainTrace, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Both deployments start from the same configuration; only the DeepBAT
	// one moves off it, every 10 simulated seconds.
	initial := deepbat.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	replayOpts := deepbat.ReplayOptions{
		PeriodS:       10,
		DecideEvery:   1,
		LookbackS:     60,
		InitialConfig: initial,
		SLO:           slo,
	}
	serve := func(dec deepbat.Decider) *deepbat.ReplayResult {
		res, err := sys.Replay(serveTrace.Timestamps, dec, replayOpts)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fmt.Printf("serving %d requests...\n\n", len(serveTrace.Timestamps))
	adaptive := serve(sys.Decider())
	static := serve(sys.Static(initial))

	for _, res := range []*deepbat.ReplayResult{adaptive, static} {
		p95, _ := stats.Percentile(res.Latencies(), 95)
		configs := map[deepbat.Config]bool{}
		for _, p := range res.Periods {
			configs[p.Config] = true
		}
		fmt.Printf("%-8s P95 %6.1fms  VCR %6.2f%%  cost %.3f u$/req  configurations used %d\n",
			res.Decider+":", p95*1000, res.VCR(), res.CostPerRequest()*1e6, len(configs))
	}
	last := adaptive.Periods[len(adaptive.Periods)-1]
	fmt.Printf("\nfinal DeepBAT configuration: %s\n", last.Config)
}
