// Command replay drives the real gateway hot path (Submit/Do with sharded
// batching, virtual batch timers, retries, breaker) from a tracev1 workload
// file — or a freshly generated named workload — entirely on a virtual
// clock, and reports throughput, p50/p95/p99 latency, goodput, and cost per
// time window.
//
//	tracegen -name azure -o azure.tracev1
//	replay -trace azure.tracev1 -slo 0.1                # per-window report
//	replay -name flashcrowd -scale 2 -json              # 2x rate, JSON report
//	replay -trace azure.tracev1 -fault-error-rate 0.05  # with injected faults
//	replay -name azure -sweep 1,2,4 -workers 0          # parallel shard sweep
//	replay -name corrburst -plan fleet.json -optimize   # fleet front door
//
// With -plan the class-labeled trace replays through a fleet front door:
// every trace class routes by name to the plan class of the same name, each
// function group runs the real gateway hot path, and the report breaks out
// per-class goodput against per-class SLOs. -optimize first runs the fleet
// planner (solo ground-truth search per class plus the plan's merge pass)
// over the trace's per-class arrival windows.
//
// Replays are byte-reproducible: the same trace file (or name + spec) and
// flags produce the identical report on any machine, which is what
// `make replay-smoke` asserts in CI. -sweep fans the shard counts out
// through the deterministic sweep engine: reports print in sweep order and
// are identical at any -workers value.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/replay"
	"deepbat/internal/sweep"
	"deepbat/internal/workload"
)

func main() {
	tracePath := flag.String("trace", "", "tracev1 file to replay (binary or JSON, auto-detected)")
	name := flag.String("name", "", "generate this workload instead of reading -trace: "+strings.Join(workload.Names(), "|"))
	hours := flag.Int("hours", 0, "paper-hours for -name (0 = workload default)")
	hourSeconds := flag.Float64("hour-seconds", 0, "simulated seconds per paper-hour for -name (0 = default)")
	seed := flag.Int64("seed", 0, "generation seed for -name (0 = default)")
	shards := flag.Int("shards", 1, "gateway shard count (0 = 1; reports depend on it)")
	slo := flag.Float64("slo", 0.1, "latency SLO in seconds (goodput threshold)")
	memory := flag.Float64("memory", 2048, "serving configuration: memory MB")
	batch := flag.Int("batch", 4, "serving configuration: batch size B")
	timeout := flag.Float64("timeout", 0.1, "serving configuration: batch timeout T seconds")
	scale := flag.Float64("scale", 1, "time compression: arrival timestamps divided by this factor")
	window := flag.Float64("window", 60, "report window length in replayed seconds")
	faultRate := flag.Float64("fault-error-rate", 0, "injected backend failure probability")
	faultStraggler := flag.Float64("fault-straggler-rate", 0, "injected straggler probability")
	faultSeed := flag.Int64("fault-seed", 0, "fault plan seed (0 = the trace's seed)")
	planPath := flag.String("plan", "", "fleet plan JSON file: replay through the fleet front door, routing trace classes by name")
	optimize := flag.Bool("optimize", false, "with -plan: run the fleet planner (and its merge pass) before replaying")
	sweepList := flag.String("sweep", "", "comma-separated shard counts replayed as a parallel fan-out (overrides -shards)")
	workers := flag.Int("workers", 0, "sweep fan-out workers (0 = GOMAXPROCS; reports are identical at any count)")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of the text table")
	metricsOut := flag.String("metrics", "", "also write the gateway's full metric snapshot (JSON) to this file")
	flag.Parse()

	o := options{
		tracePath: *tracePath, name: *name, hours: *hours, hourSeconds: *hourSeconds,
		seed: *seed, shards: *shards, slo: *slo,
		initial: lambda.Config{MemoryMB: *memory, BatchSize: *batch, TimeoutS: *timeout},
		scale:   *scale, window: *window,
		faultRate: *faultRate, faultStraggler: *faultStraggler, faultSeed: *faultSeed,
		planPath: *planPath, optimize: *optimize,
		sweepList: *sweepList, workers: *workers,
		asJSON: *asJSON, metricsOut: *metricsOut,
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// options carries the parsed flag set into run.
type options struct {
	tracePath, name           string
	hours                     int
	hourSeconds               float64
	seed                      int64
	shards                    int
	slo                       float64
	initial                   lambda.Config
	scale, window             float64
	faultRate, faultStraggler float64
	faultSeed                 int64
	planPath                  string
	optimize                  bool
	sweepList                 string
	workers                   int
	asJSON                    bool
	metricsOut                string
}

func run(o options) error {
	t, err := loadTrace(o.tracePath, o.name, o.hours, o.hourSeconds, o.seed)
	if err != nil {
		return err
	}
	if o.planPath != "" {
		switch {
		case o.sweepList != "":
			return fmt.Errorf("-plan and -sweep are mutually exclusive")
		case o.faultRate > 0 || o.faultStraggler > 0:
			return fmt.Errorf("fault injection is not supported with -plan")
		case o.metricsOut != "":
			return fmt.Errorf("-metrics is not supported with -plan (use the gateway's /metrics.json)")
		}
		return runFleet(o, t)
	}
	plan := fault.Plan{Seed: o.faultSeed, ErrorRate: o.faultRate, StragglerRate: o.faultStraggler}
	if plan.Active() && plan.Seed == 0 {
		plan.Seed = t.Header.Seed
	}
	cfg := replay.Config{
		Trace:     t,
		Initial:   o.initial,
		Shards:    o.shards,
		SLO:       o.slo,
		TimeScale: o.scale,
		WindowS:   o.window,
		Fault:     plan,
	}
	if o.sweepList != "" {
		return runSweep(o, cfg)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	rep, err := replay.Run(cfg)
	if err != nil {
		return err
	}
	if err := writeMetrics(o.metricsOut, reg); err != nil {
		return err
	}
	if o.asJSON {
		return writeJSON(os.Stdout, rep)
	}
	return rep.WriteText(os.Stdout)
}

// runFleet replays the trace through the fleet front door declared by the
// plan file, optionally running the planner over the trace's per-class
// windows first.
func runFleet(o options, t *workload.Trace) error {
	data, err := os.ReadFile(o.planPath)
	if err != nil {
		return err
	}
	plan, err := fleet.ParsePlan(data)
	if err != nil {
		return err
	}
	cfg := replay.FleetConfig{Trace: t, Plan: plan, TimeScale: o.scale}
	if o.optimize {
		windows, err := fleetWindows(plan, t, o.scale)
		if err != nil {
			return err
		}
		a, err := fleet.Optimize(plan, windows, fleet.OptimizerConfig{Workers: o.workers})
		if err != nil {
			return err
		}
		cfg.Assignment = a
	}
	rep, err := replay.RunFleet(cfg)
	if err != nil {
		return err
	}
	if o.asJSON {
		return writeJSON(os.Stdout, rep)
	}
	return rep.WriteText(os.Stdout)
}

// fleetWindows splits the trace's arrivals into one time-scaled window per
// plan class, routing trace classes by name. Plan classes absent from the
// trace get empty (idle) windows.
func fleetWindows(p fleet.Plan, t *workload.Trace, scale float64) ([][]float64, error) {
	ts := 1.0
	if scale > 0 {
		ts = scale
	}
	classMap := make([]int, len(t.Header.Classes))
	for ti, name := range t.Header.Classes {
		ci := p.ClassIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("trace class %q is not a plan class", name)
		}
		classMap[ti] = ci
	}
	windows := make([][]float64, len(p.Classes))
	for _, rq := range t.Reqs {
		ci := classMap[rq.Class]
		windows[ci] = append(windows[ci], rq.AtS/ts)
	}
	return windows, nil
}

// runSweep replays the trace once per -sweep shard count through the
// deterministic sweep engine: each count is one cell with its own metric
// registry, the shared trace cache digests the trace once, and the rendered
// reports print in sweep order regardless of -workers. -metrics receives the
// ordered merge of every cell's snapshot.
func runSweep(o options, base replay.Config) error {
	counts, err := parseCounts(o.sweepList)
	if err != nil {
		return err
	}
	cache := workload.NewCache()
	merged := obs.NewRegistry()
	outs := make([]bytes.Buffer, len(counts))
	err = sweep.Run(sweep.Options{Workers: o.workers, Obs: merged}, len(counts), func(c *sweep.Cell) error {
		cfg := base
		cfg.Shards = counts[c.Index]
		cfg.Obs = c.Obs()
		cfg.Cache = cache
		rep, err := replay.Run(cfg)
		if err != nil {
			return err
		}
		if o.asJSON {
			return writeJSON(&outs[c.Index], rep)
		}
		return rep.WriteText(&outs[c.Index])
	})
	if err != nil {
		return err
	}
	for i := range outs {
		if _, err := os.Stdout.Write(outs[i].Bytes()); err != nil {
			return err
		}
	}
	return writeMetrics(o.metricsOut, merged)
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sweep entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func writeMetrics(path string, reg *obs.Registry) error {
	if path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadTrace reads -trace (sniffing binary tracev1 vs its JSON twin by the
// magic prefix) or generates -name from its default spec with any overrides.
func loadTrace(tracePath, name string, hours int, hourSeconds float64, seed int64) (*workload.Trace, error) {
	switch {
	case tracePath != "" && name != "":
		return nil, fmt.Errorf("-trace and -name are mutually exclusive")
	case tracePath != "":
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return nil, err
		}
		if bytes.HasPrefix(data, []byte("DBTRACE1")) {
			return workload.DecodeBytes(data)
		}
		return workload.DecodeJSON(bytes.NewReader(data))
	case name != "":
		s := workload.DefaultSpec(name)
		if hours > 0 {
			s.Hours = hours
		}
		if hourSeconds > 0 {
			s.HourSeconds = hourSeconds
		}
		if seed != 0 {
			s.Seed = seed
		}
		return workload.Generate(s)
	default:
		return nil, fmt.Errorf("one of -trace or -name is required")
	}
}

func writeJSON(w io.Writer, rep any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
