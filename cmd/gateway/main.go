// Command gateway runs the real-time DeepBAT HTTP front-end: POST /infer to
// submit an inference request (it is batched per the live configuration and
// answered when its batch completes), GET /stats, /config, /metrics
// (Prometheus text format), and /metrics.json to observe the system. A
// trained model drives live reconfiguration.
//
//	gateway -model model.gob -addr :8080
//	gateway -model model.gob -pprof            # also mount /debug/pprof/*
//	gateway -model model.gob -demo -demo-rate 200 -demo-duration 10s
//	gateway -plan fleet.json                   # multi-class fleet front door
//
// With -demo the command starts the server, drives synthetic Poisson traffic
// against it, prints the resulting stats, and exits.
//
// With -plan the command serves a fleet instead of a single gateway: the
// JSON plan declares the request classes (name, profile, SLO, optional merge
// groups), POST /infer?class=<name> routes to the class's function group,
// and each group re-searches its own (M, B, T) on the -decide-every period
// via ground-truth simulation. -model and the fault/resilience flags do not
// apply in plan mode; resilience comes from the plan.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"deepbat"
	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "model.gob", "trained model path")
	planPath := flag.String("plan", "", "fleet plan JSON file: serve a multi-class fleet instead of a single gateway")
	slo := flag.Float64("slo", 0.1, "latency SLO in seconds")
	decideEvery := flag.Duration("decide-every", 5*time.Second, "control period")
	timeScale := flag.Float64("time-scale", 1.0, "backend wall-clock scale (0 = instant)")
	shards := flag.Int("shards", 0, "batcher shard count (0 = 1)")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	demo := flag.Bool("demo", false, "self-drive synthetic traffic and exit")
	demoRate := flag.Float64("demo-rate", 100, "demo traffic rate (req/s)")
	demoDur := flag.Duration("demo-duration", 10*time.Second, "demo length")
	// Resilience knobs.
	maxRetries := flag.Int("max-retries", 2, "backend retries per batch before it fails")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff (doubles per retry)")
	retryMax := flag.Duration("retry-max", time.Second, "retry backoff cap")
	retryJitterSeed := flag.Int64("retry-jitter-seed", 1, "backoff jitter PRNG seed (0 disables jitter)")
	requestTimeout := flag.Float64("request-timeout", 0, "per-request deadline in seconds (0 = none)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures that open the circuit breaker (0 = disabled)")
	breakerCooldown := flag.Float64("breaker-cooldown", 5, "seconds the breaker stays open before a half-open probe")
	// Chaos knobs: a seeded fault.Plan injected in front of the backend.
	faultSeed := flag.Int64("fault-seed", 0, "fault-injection seed")
	faultErrorRate := flag.Float64("fault-error-rate", 0, "probability an invocation attempt fails")
	faultStragglerRate := flag.Float64("fault-straggler-rate", 0, "probability an invocation straggles")
	faultColdSpikeRate := flag.Float64("fault-cold-spike-rate", 0, "probability an invocation pays a cold-start spike")
	faultDecideErrorRate := flag.Float64("fault-decide-error-rate", 0, "probability a control decision fails")
	flag.Parse()

	if *planPath != "" {
		if *demo {
			log.Fatal("gateway: -demo does not apply in -plan mode")
		}
		runFleet(*planPath, *addr, *decideEvery, *timeScale, *withPprof)
		return
	}

	sys, err := deepbat.LoadSystem(*model, optionsWithSLO(*slo))
	if err != nil {
		log.Fatalf("gateway: load model: %v (train one with: deepbat train)", err)
	}
	decide := func(window []float64) (lambda.Config, error) {
		d, err := sys.Decide(window)
		if err != nil {
			return lambda.Config{}, err
		}
		return d.Config, nil
	}
	var backend gateway.Backend = gateway.SimulatedBackend{
		Profile:   deepbat.DefaultProfile(),
		Pricing:   deepbat.DefaultPricing(),
		TimeScale: *timeScale,
	}
	plan := fault.Plan{
		Seed:            *faultSeed,
		ErrorRate:       *faultErrorRate,
		StragglerRate:   *faultStragglerRate,
		ColdSpikeRate:   *faultColdSpikeRate,
		DecideErrorRate: *faultDecideErrorRate,
	}
	if plan.Active() {
		inj := fault.NewInjector(plan)
		pricing := deepbat.DefaultPricing()
		backend = &fault.FaultyBackend{
			Inner: backend, Inj: inj, Pricing: &pricing, TimeScale: *timeScale,
		}
		decide = inj.WrapDecide(decide)
		fmt.Printf("gateway: fault injection active (seed %d, error %.2f, straggler %.2f, cold-spike %.2f, decide-error %.2f)\n",
			plan.Seed, plan.ErrorRate, plan.StragglerRate, plan.ColdSpikeRate, plan.DecideErrorRate)
	}
	resilience := gateway.Resilience{
		MaxRetries:       *maxRetries,
		RetryBase:        *retryBase,
		RetryMax:         *retryMax,
		RequestTimeoutS:  *requestTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldownS: *breakerCooldown,
		Fallback:         lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0},
	}
	if *retryJitterSeed != 0 {
		resilience.Jitter = rand.New(rand.NewSource(*retryJitterSeed))
	}
	gw, err := gateway.New(
		backend,
		decide,
		gateway.Config{
			Initial:     lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05},
			SLO:         *slo,
			DecideEvery: *decideEvery,
			WindowLen:   sys.Model.Cfg.SeqLen,
			Resilience:  resilience,
			Shards:      *shards,
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Stop()

	if *demo {
		runDemo(gw, *demoRate, *demoDur)
		return
	}
	handler := gw.Handler()
	if *withPprof {
		// Opt-in profiling: mount the pprof handlers next to the gateway
		// endpoints instead of relying on http.DefaultServeMux.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	extra := ""
	if *withPprof {
		extra = ", /debug/pprof"
	}
	fmt.Printf("gateway listening on %s (POST /infer, GET /stats, GET /config, GET /metrics%s)\n", *addr, extra)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		log.Fatal(err)
	}
}

// runFleet serves a multi-class fleet front door from a plan file: one
// sharded gateway per function group, each tuned on the control period by
// ground-truth simulation over its own arrival window.
func runFleet(planPath, addr string, decideEvery time.Duration, timeScale float64, withPprof bool) {
	data, err := os.ReadFile(planPath)
	if err != nil {
		log.Fatalf("gateway: read plan: %v", err)
	}
	plan, err := fleet.ParsePlan(data)
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	f, err := fleet.New(plan, fleet.Options{
		TuneEvery: decideEvery,
		BackendFor: func(gi int, g fleet.Group) gateway.Backend {
			lead := plan.Classes[g.Classes[0]]
			for _, ci := range g.Classes[1:] {
				if plan.Classes[ci].SLO < lead.SLO {
					lead = plan.Classes[ci]
				}
			}
			return gateway.SimulatedBackend{
				Profile:   lambda.Profiles[g.Profile],
				Pricing:   lead.LambdaPricing(),
				TimeScale: timeScale,
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Stop()
	handler := http.Handler(f.Handler())
	if withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	names := make([]string, len(plan.Classes))
	for i, spec := range plan.Classes {
		names[i] = spec.Name
	}
	fmt.Printf("gateway fleet listening on %s: %d classes (%s) on %d groups (POST /infer?class=<name>, GET /stats, /config, /metrics)\n",
		addr, len(plan.Classes), strings.Join(names, ","), f.Groups())
	if err := http.ListenAndServe(addr, handler); err != nil {
		log.Fatal(err)
	}
}

func optionsWithSLO(slo float64) deepbat.Options {
	opts := deepbat.DefaultOptions()
	opts.SLO = slo
	return opts
}

// runDemo drives Poisson traffic at the gateway through a local HTTP server
// and prints the final stats document.
func runDemo(gw *gateway.Gateway, rate float64, dur time.Duration) {
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	fmt.Printf("demo: %g req/s for %s against %s\n", rate, dur, srv.URL)

	rng := rand.New(rand.NewSource(1))
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	sent := 0
	for time.Now().Before(deadline) {
		wg.Add(1)
		sent++
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/infer", "application/json", nil)
			if err != nil {
				return
			}
			resp.Body.Close()
		}()
		gap := rng.ExpFloat64() / rate
		time.Sleep(time.Duration(gap * float64(time.Second)))
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats gateway.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fmt.Printf("demo: sent %d requests; final stats:\n", sent)
	if err := enc.Encode(stats); err != nil {
		log.Fatal(err)
	}
}
