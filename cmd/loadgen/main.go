// Command loadgen drives an in-process gateway with synthetic traffic and
// reports throughput, p50/p95/p99 latency, and goodput (SLO-satisfying
// req/s).
//
//	loadgen -loop closed -clients 16 -duration 3s          # saturation run
//	loadgen -loop open -requests 5000 -rate 2000 -seed 42  # deterministic replay
//	loadgen -loop open -requests 5000 -rate 2000 -sweep 1,2,4,8
//	loadgen -plan fleet.json -requests 5000 -seed 42       # multi-class fleet
//
// With -plan the open loop drives a fleet instead of a single gateway: each
// plan class emits its own seeded Poisson stream at its rate_rps, the merged
// stream routes through the fleet front door, and the table breaks out one
// row per class with goodput judged against that class's own SLO.
//
// The open loop replays a seeded Poisson arrival process through the real
// gateway on a virtual clock (batch timeouts and service time included):
// same seed, same table, on any machine — which is what makes -sweep output
// comparable across shard counts and runs. The closed loop measures real
// wall-clock saturation throughput; -assert turns it into the CI smoke check
// (goodput > 0, zero failed requests).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"deepbat/internal/fleet"
	"deepbat/internal/lambda"
	"deepbat/internal/loadgen"
	"deepbat/internal/sweep"
)

func main() {
	loop := flag.String("loop", "closed", "traffic loop: closed | open")
	planPath := flag.String("plan", "", "fleet plan JSON file: drive a multi-class fleet with per-class Poisson streams (open loop)")
	shards := flag.Int("shards", 0, "gateway shard count (0 = 1)")
	sweepList := flag.String("sweep", "", "comma-separated shard counts to sweep (overrides -shards)")
	workers := flag.Int("workers", 0, "open-loop sweep fan-out workers (0 = GOMAXPROCS; rows are identical at any count)")
	clients := flag.Int("clients", 8, "closed-loop concurrent clients")
	requests := flag.Int("requests", 0, "request budget: per client (closed), total (open)")
	duration := flag.Duration("duration", 3*time.Second, "closed-loop wall budget (0 = until -requests)")
	rate := flag.Float64("rate", 1000, "open-loop Poisson arrival rate (req/s)")
	seed := flag.Int64("seed", 1, "arrival/fault PRNG seed")
	slo := flag.Float64("slo", 0.1, "latency SLO in seconds (goodput threshold)")
	memory := flag.Float64("memory", 2048, "serving configuration: memory MB")
	batch := flag.Int("batch", 1, "serving configuration: batch size B")
	timeout := flag.Float64("timeout", 0.01, "serving configuration: batch timeout T seconds")
	faultRate := flag.Float64("fault-error-rate", 0, "injected backend failure probability")
	assert := flag.Bool("assert", false, "exit 1 unless goodput > 0 and no request failed (CI smoke)")
	flag.Parse()

	cfg := loadgen.Config{
		Initial:        lambda.Config{MemoryMB: *memory, BatchSize: *batch, TimeoutS: *timeout},
		Shards:         *shards,
		SLO:            *slo,
		Clients:        *clients,
		Requests:       *requests,
		Duration:       *duration,
		RateRPS:        *rate,
		Seed:           *seed,
		FaultErrorRate: *faultRate,
	}
	if *loop == "open" && cfg.Requests == 0 {
		cfg.Requests = 5000
	}
	if *planPath != "" {
		if *sweepList != "" {
			log.Fatal("loadgen: -plan and -sweep are mutually exclusive")
		}
		if cfg.Requests == 0 {
			cfg.Requests = 5000
		}
		runFleet(*planPath, cfg, *assert)
		return
	}

	counts := []int{cfg.Shards}
	if *sweepList != "" {
		counts = parseSweep(*sweepList)
	}
	if *loop != "closed" && *loop != "open" {
		log.Fatalf("loadgen: unknown -loop %q (want closed or open)", *loop)
	}
	reports := make([]loadgen.Report, len(counts))
	if *loop == "open" {
		// Every open-loop run is an isolated gateway on its own virtual
		// clock, so the sweep entries fan out as parallel cells; rows print
		// in sweep order and are identical at any -workers value.
		err := sweep.Run(sweep.Options{Workers: *workers}, len(counts), func(c *sweep.Cell) error {
			lc := cfg
			lc.Shards = counts[c.Index]
			r, err := loadgen.RunOpen(lc)
			if err != nil {
				return err
			}
			reports[c.Index] = r
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	} else {
		// The closed loop measures wall-clock saturation; concurrent runs
		// would contend for the cores under test, so it stays serial.
		for i, p := range counts {
			c := cfg
			c.Shards = p
			r, err := loadgen.RunClosed(c)
			if err != nil {
				log.Fatal(err)
			}
			reports[i] = r
		}
	}
	printHeader("mode")
	ok := true
	for _, r := range reports {
		printRow(r.Mode, r)
		if r.GoodputRPS <= 0 || r.Failed > 0 {
			ok = false
		}
	}
	if *assert && !ok {
		fmt.Println("loadgen: ASSERT FAILED (goodput must be > 0 with zero failed requests)")
		os.Exit(1)
	}
}

// runFleet drives the fleet open loop from a plan file and prints one row
// per class plus the fleet-wide total.
func runFleet(planPath string, cfg loadgen.Config, assert bool) {
	data, err := os.ReadFile(planPath)
	if err != nil {
		log.Fatalf("loadgen: read plan: %v", err)
	}
	plan, err := fleet.ParsePlan(data)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	res, err := loadgen.RunFleetOpen(plan, cfg)
	if err != nil {
		log.Fatal(err)
	}
	printHeader("class")
	ok := true
	for _, r := range res.PerClass {
		printRow(r.Class, r)
		if r.Requests > 0 && (r.GoodputRPS <= 0 || r.Failed > 0) {
			ok = false
		}
	}
	printRow("total", res.Total)
	if res.Total.GoodputRPS <= 0 || res.Total.Failed > 0 {
		ok = false
	}
	if assert && !ok {
		fmt.Println("loadgen: ASSERT FAILED (goodput must be > 0 with zero failed requests)")
		os.Exit(1)
	}
}

func parseSweep(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			log.Fatalf("loadgen: bad -sweep entry %q", part)
		}
		out = append(out, n)
	}
	return out
}

// printHeader and printRow render the one report table; the first column is
// the loop mode for single-gateway runs and the class for fleet runs.
func printHeader(first string) {
	fmt.Printf("%-12s %7s %9s %8s %12s %12s %9s %9s %9s %12s\n",
		first, "shards", "requests", "failed",
		"throughput", "goodput", "p50_ms", "p95_ms", "p99_ms", "cost_usd")
}

func printRow(first string, r loadgen.Report) {
	fmt.Printf("%-12s %7d %9d %8d %12.1f %12.1f %9.3f %9.3f %9.3f %12.6f\n",
		first, r.Shards, r.Requests, r.Failed,
		r.ThroughputRPS, r.GoodputRPS, r.P50MS, r.P95MS, r.P99MS, r.TotalCostUSD)
}
