// Command benchmark is the repo's ruler: it drives DeepBAT in one process,
// through package APIs only, on four workloads that each load a different
// timescale of the system, prints every metric by name and unit, checks the
// outputs, and exits. README.md in this directory says what each number
// means and which layer should move which end-to-end metric.
//
//	go run ./benchmark                                  every workload, untraced
//	go run ./benchmark -workload control -trace 1       one workload, traced: per-layer metrics
//	go run ./benchmark -selfcheck                       every workload twice; fails outside its own bounds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// env is what a workload gets: generated-input seed, measuring budget,
// sizing, the tracer (nil when tracing is off) and the check list.
type env struct {
	seed    int64
	seconds float64
	sc      scale
	tr      *tracer
	checks  checklist
}

// checklist records correctness checks; any failure fails the run.
type checklist struct {
	passed int
	failed []string
}

func (c *checklist) expect(ok bool, format string, args ...any) {
	if ok {
		c.passed++
		return
	}
	c.failed = append(c.failed, fmt.Sprintf(format, args...))
}

// outcome is what one workload run measured.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	// notes are printed with the metrics: what op and work mean here, the
	// sample count and the percentile op_ms_tail landed on.
	notes []string
}

type workloadDef struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

// workloads run strictly one after another: tensor.NoGrad is process-global.
var workloads = []workloadDef{
	{"control", "closed-loop DeepBAT control over the four paper traces: surrogate inference and the optimizer do the work, the gateway none", runControl},
	{"serve-replay", "eight zoo traces through the real gateway on virtual time at a static config: workload, gateway and replay do the work, the surrogate none", runServeReplay},
	{"plan", "the slow timescale: fleet.Optimize over the class-count x SLO-spread x merge matrix, then a fleet replay under each plan (qsim, fleet, sweep; multi-class gateway routing)", runPlan},
	{"train", "the write side of the surrogate: dataset build, normalisation fit, training and fine-tuning on the autograd tape with weight updates", runTrain},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	smoke     bool
	selfcheck bool
	spans     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: control, serve-replay, plan, train, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (traces, datasets, fault plans)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for tests")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice in alternating order and compare the two against the bounds")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans.jsonl", "where a traced run writes its spans (JSON lines)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout))
}

func run(o options, stdout io.Writer) int {
	if err := validateDefs(endToEnd, map[string]bool{}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := validateDefs(perLayer, map[string]bool{}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var selected []workloadDef
	if o.workload == "all" {
		selected = workloads
	} else if w := findWorkload(o.workload); w != nil {
		selected = []workloadDef{*w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	printFingerprint(stdout, o)
	if o.selfcheck {
		return selfcheck(o, stdout)
	}
	code := 0
	for _, w := range selected {
		res, err := runOne(w, o, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// runOne runs one workload under its watchdog and goroutine-baseline check
// and renders its result.
func runOne(w workloadDef, o options, stdout io.Writer) (result, error) {
	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	e := &env{seed: o.seed, seconds: o.seconds, sc: sc}
	if o.trace == 1 {
		e.tr = newTracer()
	}
	// A hung workload must end the process, not outlive its caller. Three
	// times the budget (set-ups, measured seconds, probes, checks), kept
	// under the 180 s a single run is allowed.
	limit := 3 * time.Duration((o.seconds+30)*float64(time.Second))
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %v watchdog\n", w.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	// The workloads run on one core. End-to-end timings are serial by design
	// (parallel variants are layer metrics), and on a small VM a second P
	// makes them measure the host instead: Decide's fan-out waits on
	// cross-thread wake-ups whose latency moves between 0.63 and 0.95 ms per
	// decision in minutes-long regimes. The parallel layer probes raise it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	baseline := runtime.NumGoroutine()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(stdout, "workload %s seed=%d seconds=%g trace=%d: %s\n", w.name, o.seed, o.seconds, o.trace, w.why)

	out, err := w.run(e)
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		if err := runProbes(e, out.metrics); err != nil {
			return result{}, fmt.Errorf("layer probes: %w", err)
		}
		runtimeMetrics(out.metrics, &before)
		out.metrics["tracing.spans"] = float64(len(e.tr.spans))
		if err := e.tr.writeJSONL(o.spans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	e.checks.expect(goroutinesSettle(baseline), "goroutines: %d running after the workload, %d before it", runtime.NumGoroutine(), baseline)

	metrics, err := out.metrics.report(defs)
	if err != nil {
		return result{}, err
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "note   %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "metric %-34s %16.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(stdout, "ops    attempted=%d failed=%d checks_passed=%d checks_failed=%d\n",
		out.attempted, out.failed, e.checks.passed, len(e.checks.failed))
	for _, f := range e.checks.failed {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	return result{
		Correct:   len(e.checks.failed) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, nil
}

// goroutinesSettle waits briefly for the goroutine count to return to its
// pre-workload baseline: a stopped gateway's goroutines have been joined, but
// the runtime may still be retiring one that already returned.
func goroutinesSettle(baseline int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func runtimeMetrics(m metricSet, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m["runtime.total_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["runtime.peak_rss_mb"] = peakRSSMB(&after)
}

// peakRSSMB reads the process's high-water resident set from /proc, falling
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB(ms *runtime.MemStats) float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), "kB"), &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(ms.Sys) / (1 << 20)
}

func printFingerprint(w io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "fingerprint go=%s os=%s arch=%s num_cpu=%d gomaxprocs=1 (parallel probes: %d) commit=%s seed=%d seconds=%g trace=%d smoke=%v\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), commit, o.seed, o.seconds, o.trace, o.smoke)
}

// selfcheck is the noise self-test: every workload twice, the second time in
// reverse order, comparing the two sets against the benchmark's own bounds.
// Wall-clock metrics may differ by at most their bound; the metrics that are
// pure functions of (seed, code) may not differ at all.
func selfcheck(o options, stdout io.Writer) int {
	o.trace = 0
	first, second := map[string]result{}, map[string]result{}
	order := append([]workloadDef(nil), workloads...)
	for round, into := range []map[string]result{first, second} {
		if round == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runOne(w, o, stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				return 1
			}
			into[w.name] = res
		}
	}
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.name].Metrics[d.Name].Value, second[w.name].Metrics[d.Name].Value
			diff := (b - a) / a
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			switch {
			case deterministic[d.Name] && a != b:
				verdict = "DIFFERS (must repeat exactly)"
				bad++
			case !deterministic[d.Name] && (diff > d.Bound || -diff > d.Bound):
				verdict = "OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "selfcheck %-13s %-16s first=%-14.6g second=%-14.6g change=%+7.2f%% bound=%g%% %s\n",
				w.name, d.Name, a, b, 100*(b-a)/a, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck FAILED: %d metric(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck ok")
	return 0
}

// deterministic names the end-to-end metrics that are pure functions of
// (seed, code): they must repeat exactly between runs of one commit.
var deterministic = map[string]bool{"cost_usd_per_1m": true, "goodput_frac": true}
