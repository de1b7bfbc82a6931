// Multiclass: serve two inference model classes side by side (the MBS
// direction the paper cites as the multi-class successor of BATCH): a speech
// model with a 100 ms SLO on a diurnal workload and a lightweight vision
// model with a 50 ms SLO on a steadier stream. Each class gets its own
// surrogate, trained against its own service-time profile, and its own
// closed-loop controller; the table sets each against a static deployment of
// the same class. (The serving-side counterpart — one front door routing N
// classes to per-group gateways — is internal/fleet.)
package main

import (
	"fmt"
	"log"

	"deepbat"
	"deepbat/internal/lambda"
)

func main() {
	classes := []struct {
		name    string
		trace   string
		seed    int64
		profile string
		slo     float64
	}{
		{"speech", "azure", 11, "nlp-base", 0.1},
		{"vision", "twitter", 12, "cnn-small", 0.05},
	}
	initial := deepbat.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}

	type row struct {
		class string
		res   *deepbat.ReplayResult
	}
	var rows []row
	for _, c := range classes {
		tr, err := deepbat.GenerateTrace(deepbat.TraceSpec{
			Name: c.trace, Hours: 3, HourSeconds: 40, Seed: c.seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		sys := trainFor(tr, lambda.Profiles[c.profile], c.slo)
		opts := deepbat.ReplayOptions{
			PeriodS:       10,
			DecideEvery:   1,
			LookbackS:     40,
			InitialConfig: initial,
			SLO:           c.slo,
		}
		for _, dec := range []deepbat.Decider{sys.Decider(), sys.Static(initial)} {
			res, err := sys.Replay(tr.Timestamps, dec, opts)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row{c.name, res})
		}
	}

	fmt.Printf("\n%-8s %-8s %8s %9s %8s %14s\n", "class", "control", "slo_ms", "requests", "VCR_%", "cost_u$/req")
	for _, r := range rows {
		fmt.Printf("%-8s %-8s %8.0f %9d %8.2f %14.3f\n",
			r.class, r.res.Decider, r.res.SLO*1000, len(r.res.Latencies()), r.res.VCR(), r.res.CostPerRequest()*1e6)
	}
}

// trainFor trains a small per-class surrogate against the class profile.
func trainFor(tr *deepbat.Trace, profile deepbat.Profile, slo float64) *deepbat.System {
	opts := deepbat.DefaultOptions()
	opts.Profile = profile
	opts.SLO = slo
	opts.Model.SeqLen = 32
	opts.DatasetSamples = 300
	opts.Train.Epochs = 8
	fmt.Printf("training the %s-profile surrogate (SLO %.0fms)...\n", profile.Name, slo*1000)
	sys, err := deepbat.Train(tr, opts)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}
