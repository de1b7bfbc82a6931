// Command loadgen drives an in-process gateway with concurrent clients on the
// wall clock and reports throughput, p50/p95/p99 latency, and goodput
// (SLO-satisfying req/s).
//
//	loadgen -clients 16 -duration 3s               # saturation run
//	loadgen -clients 8 -duration 2s -sweep 1,2,4   # one run per shard count
//
// Each client issues its next request the moment the previous one returns,
// so the table is real saturation throughput on this machine; -assert turns
// it into the CI smoke check (goodput > 0, zero failed requests). -sweep
// runs the shard counts one after another, since concurrent runs would
// contend for the cores under test. Deterministic figures on virtual time —
// a trace's arrivals through the same gateway — come from cmd/replay.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"deepbat/internal/lambda"
	"deepbat/internal/loadgen"
)

func main() {
	shards := flag.Int("shards", 0, "gateway shard count (0 = 1)")
	sweepList := flag.String("sweep", "", "comma-separated shard counts to run in turn (overrides -shards)")
	clients := flag.Int("clients", 8, "concurrent clients")
	requests := flag.Int("requests", 0, "per-client request budget (0 = until -duration)")
	duration := flag.Duration("duration", 3*time.Second, "wall budget (0 = until -requests)")
	seed := flag.Int64("seed", 1, "fault PRNG seed")
	slo := flag.Float64("slo", 0.1, "latency SLO in seconds (goodput threshold)")
	memory := flag.Float64("memory", 2048, "serving configuration: memory MB")
	batch := flag.Int("batch", 1, "serving configuration: batch size B")
	timeout := flag.Float64("timeout", 0.01, "serving configuration: batch timeout T seconds")
	faultRate := flag.Float64("fault-error-rate", 0, "injected backend failure probability")
	assert := flag.Bool("assert", false, "exit 1 unless goodput > 0 and no request failed (CI smoke)")
	flag.Parse()

	cfg := loadgen.Config{
		Initial:        lambda.Config{MemoryMB: *memory, BatchSize: *batch, TimeoutS: *timeout},
		SLO:            *slo,
		Clients:        *clients,
		Requests:       *requests,
		Duration:       *duration,
		Seed:           *seed,
		FaultErrorRate: *faultRate,
	}
	counts := []int{*shards}
	if *sweepList != "" {
		counts = parseSweep(*sweepList)
	}
	fmt.Printf("%7s %9s %8s %12s %12s %9s %9s %9s %12s\n",
		"shards", "requests", "failed",
		"throughput", "goodput", "p50_ms", "p95_ms", "p99_ms", "cost_usd")
	ok := true
	for _, p := range counts {
		cfg.Shards = p
		r, err := loadgen.RunClosed(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d %9d %8d %12.1f %12.1f %9.3f %9.3f %9.3f %12.6f\n",
			r.Shards, r.Requests, r.Failed,
			r.ThroughputRPS, r.GoodputRPS, r.P50MS, r.P95MS, r.P99MS, r.TotalCostUSD)
		if r.GoodputRPS <= 0 || r.Failed > 0 {
			ok = false
		}
	}
	if *assert && !ok {
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
