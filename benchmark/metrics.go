package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEnd are the figures a user of DeepBAT sees. Every workload reports
// every one of them; what "op" and "work" mean on each workload is fixed in
// README.md and printed with the run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"cost_usd_per_1m", "USD/1M", "lower", 0.20},
	{"goodput_frac", "frac", "higher", 0.04},
}

// perLayer are the traced run's metrics, `<module>.<name>`. The layer probes
// behind them are the same on every workload; busy.*, tracing.* and
// runtime.* come from the traced workload passes themselves.
var perLayer = []metricDef{
	// -> op_ms_p50/op_ms_tail/work_per_s on control.
	{"gemm.naive_256_ms", "ms", "lower", 0},
	{"gemm.blocked_256_ms", "ms", "lower", 0},
	{"gemm.pack_256_us", "us", "lower", 0},
	{"tensor.matmul_32x16x16_us", "us", "lower", 0},
	{"tensor.matmul_256_ms", "ms", "lower", 0},
	{"nn.encoder_forward_nograd_ms", "ms", "lower", 0},
	{"surrogate.encode_ms", "ms", "lower", 0},
	{"surrogate.predict_grid_ms", "ms", "lower", 0},
	{"surrogate.head_ms", "ms", "lower", 0},
	{"surrogate.predict_one_us", "us", "lower", 0},
	{"optimizer.decide_ms", "ms", "lower", 0},
	{"optimizer.configs_us", "us", "lower", 0},
	{"optimizer.argmin_us", "us", "lower", 0},
	{"optimizer.parts_over_whole", "ratio", "lower", 0},
	{"optimizer.decide_allocs", "count", "lower", 0},
	{"optimizer.decide_bytes", "B", "lower", 0},
	{"optimizer.feasible_frac", "frac", "higher", 0},
	{"core.engine_replay_ms", "ms", "lower", 0},
	{"core.engine_self_ms", "ms", "lower", 0},
	{"qsim.run_ms_per_100k", "ms", "lower", 0},
	{"qsim.evaluate_us", "us", "lower", 0},
	{"batchopt.decide_s", "s", "lower", 0},
	{"batchopt.speedup_vs_decide", "ratio", "higher", 0},
	// -> work_per_s on serve-replay (and plan, through RunFleet).
	{"gateway.submit_ns", "ns", "lower", 0},
	{"gateway.flush_due_ns", "ns", "lower", 0},
	{"gateway.wait_ns", "ns", "lower", 0},
	{"gateway.stop_ms", "ms", "lower", 0},
	{"gateway.backend_execute_ns", "ns", "lower", 0},
	{"gateway.batches", "count", "lower", 0},
	{"gateway.mean_batch_size", "count", "higher", 0},
	{"gateway.fill_frac", "frac", "higher", 0},
	{"gateway.dispatch_by_count_frac", "frac", "higher", 0},
	{"gateway.retries", "count", "lower", 0},
	{"gateway.allocs_per_req", "count", "lower", 0},
	{"gateway.closed_do_ns_c1", "ns", "lower", 0},
	{"gateway.closed_do_ns_cN", "ns", "lower", 0},
	{"gateway.closed_scaling", "ratio", "higher", 0},
	{"replay.run_ms", "ms", "lower", 0},
	{"replay.driver_ms", "ms", "lower", 0},
	{"replay.fold_self_ms", "ms", "lower", 0},
	{"replay.driver_over_run", "ratio", "lower", 0},
	{"workload.generate_ms", "ms", "lower", 0},
	{"workload.digest_ms", "ms", "lower", 0},
	{"workload.encode_ms", "ms", "lower", 0},
	{"workload.decode_ms", "ms", "lower", 0},
	{"workload.requests", "count", "higher", 0},
	// -> op_ms_p50/work_per_s on plan.
	{"fleet.optimize_s", "s", "lower", 0},
	{"fleet.optimize_parallel_s", "s", "lower", 0},
	{"fleet.optimize_scaling", "ratio", "higher", 0},
	{"fleet.merge_self_s", "s", "lower", 0},
	{"fleet.groups", "count", "lower", 0},
	{"fleet.merges_accepted_frac", "frac", "higher", 0},
	{"fleet.submit_ns", "ns", "lower", 0},
	{"qsim.ground_truth_best_s", "s", "lower", 0},
	{"sweep.dispatch_us", "us", "lower", 0},
	{"replay.run_fleet_ms", "ms", "lower", 0},
	// -> op_ms_p50/work_per_s on train, setup_s on control.
	{"surrogate.build_ms", "ms", "lower", 0},
	{"surrogate.fit_norm_us", "us", "lower", 0},
	{"surrogate.train_epoch_ms", "ms", "lower", 0},
	{"surrogate.eval_mape_ms", "ms", "lower", 0},
	{"surrogate.val_mape_pct", "%", "lower", 0},
	{"surrogate.train_allocs_per_epoch", "count", "lower", 0},
	{"surrogate.train_mb_per_epoch", "MB", "lower", 0},
	{"surrogate.save_ms", "ms", "lower", 0},
	{"surrogate.load_ms", "ms", "lower", 0},
	{"nn.encoder_forward_tape_ms", "ms", "lower", 0},
	{"tensor.backward_ms", "ms", "lower", 0},
	{"opt.adam_step_us", "us", "lower", 0},
	// From the traced passes of the workload itself.
	{"busy.optimizer_pct", "%", "lower", 0},
	{"busy.core_pct", "%", "lower", 0},
	{"busy.replay_pct", "%", "lower", 0},
	{"busy.fleet_pct", "%", "lower", 0},
	{"busy.surrogate_pct", "%", "lower", 0},
	{"busy.harness_pct", "%", "lower", 0},
	{"tracing.overhead_pct", "%", "lower", 0},
	{"tracing.driver_overhead_pct", "%", "lower", 0},
	{"tracing.spans", "count", "lower", 0},
	{"runtime.total_alloc_mb", "MB", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs applies the BENCHMARK.json naming rules to a metric table.
func validateDefs(defs []metricDef, seen map[string]bool) error {
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better is %q", d.Name, d.Better)
		case d.Bound < 0 || d.Bound > 0.25:
			return fmt.Errorf("metric %s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		case seen[d.Name]:
			return fmt.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// value is one reported number with its unit, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// report renders exactly the metrics of defs, failing on a missing, NaN or
// infinite value so that a silently skipped probe cannot pass as a number.
func (m metricSet) report(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted. The ruler keeps
// its own arithmetic rather than internal/stats': a change to the program
// under test must not be able to move how it is measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (r-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the percentile rule for op_ms_tail: the highest
// percentile, capped at 99, that still has at least ten samples beyond it.
// With fewer than twenty samples no percentile above the median qualifies,
// and the median itself is returned (ok = false says the rule was not met).
func tailPercentile(n int) (pct float64, ok bool) {
	if n < 20 {
		return 50, false
	}
	return math.Min(99, 100*(1-10/float64(n))), true
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
