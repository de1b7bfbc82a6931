package main

import (
	"fmt"
	"time"
)

// scale sizes the workloads. fullScale is what BENCHMARK.json measures; the
// time the driver allows per run (set-ups + measured seconds + checks, 92
// runs in under an hour) is what caps it below the experiments' lab scale.
// smokeScale only has to reach every code path, for the tests.
type scale struct {
	setups    int // set-up repetitions; setup_s is their median
	minPasses int // measured passes made even when the budget is already spent

	// Paper traces (control, train): Hours paper-hours of HourSeconds each.
	traceHours  int
	hourSeconds float64
	// Surrogate training (control's set-up, train's measured op).
	seqLen       int
	trainSamples int
	trainEpochs  int
	ftSamples    int
	// Zoo traces (serve-replay).
	zooHours int
	// Fleet planning traces (plan).
	planHours       int
	planHourSeconds float64
	// Layer probes: repetitions per probe, requests per closed-loop run, and
	// the BATCH analyzer's grid resolution (0 = its default).
	probeReps      int
	closedRequests int
	batchSteps     int
}

var fullScale = scale{
	setups: 3, minPasses: 3,
	traceHours: 24, hourSeconds: 60,
	seqLen: 32, trainSamples: 240, trainEpochs: 5, ftSamples: 80,
	zooHours:  8,
	planHours: 12, planHourSeconds: 1,
	probeReps: 11, closedRequests: 200000, batchSteps: 0,
}

var smokeScale = scale{
	setups: 2, minPasses: 2,
	traceHours: 4, hourSeconds: 20,
	seqLen: 16, trainSamples: 40, trainEpochs: 2, ftSamples: 20,
	zooHours:  1,
	planHours: 3, planHourSeconds: 1,
	probeReps: 3, closedRequests: 4000, batchSteps: 24,
}

// runner is one workload, set up: pass runs the measured unit once, and
// reset forgets what earlier passes sampled (but not what they proved).
type runner interface {
	pass(i, root int) error
	reset()
}

// medianSetup sets the workload up sc.setups times and returns the last
// runner with the median wall seconds of a set-up. A set-up is everything
// that happens before the first timed op can run: generating the inputs,
// building the system from them, and one untimed warm-up pass that fills
// pools and faults memory in. Every set-up starts from the seed alone, so all
// of them build the same thing.
func medianSetup[R runner](e *env, build func() (R, error)) (R, float64, error) {
	var last R
	times := make([]float64, 0, e.sc.setups)
	for i := 0; i < e.sc.setups; i++ {
		t0 := time.Now()
		r, err := build()
		if err == nil {
			err = r.pass(0, -1)
		}
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = r
	}
	last.reset()
	return last, median(times), nil
}

// loop is the measured phase: whole passes of the workload, back to back,
// until the budget is spent. On a traced run every second pass runs with the
// tracer on, under a root span, and the other half stays untraced, so the
// two medians give the tracing overhead from one process.
type loop struct {
	passMS   []float64 // untraced passes
	tracedMS []float64 // traced passes (traced runs only)
	wallS    float64   // all passes
}

func (e *env) measure(r runner) (loop, error) {
	var l loop
	budget := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < e.sc.minPasses || time.Since(start) < budget; i++ {
		traced := e.tr != nil && i%2 == 1
		if e.tr != nil {
			e.tr.on = traced
		}
		t0 := time.Now()
		root := e.tr.begin("pass", "harness", -1, i)
		err := r.pass(i, root)
		e.tr.end(root)
		ms := time.Since(t0).Seconds() * 1000
		if e.tr != nil {
			e.tr.on = false
		}
		if err != nil {
			return l, fmt.Errorf("pass %d: %w", i, err)
		}
		if traced {
			l.tracedMS = append(l.tracedMS, ms)
		} else {
			l.passMS = append(l.passMS, ms)
		}
	}
	l.wallS = time.Since(start).Seconds()
	return l, nil
}

// finish fills the metrics every workload reports the same way: the op
// percentiles, work per second, and on a traced run the overhead and the
// share of the traced passes each entry layer was busy.
func (e *env) finish(out *outcome, l loop, opMS []float64, opName string, work float64, workName string) {
	pct, ok := tailPercentile(len(opMS))
	out.metrics["op_ms_p50"] = median(opMS)
	out.metrics["op_ms_tail"] = percentile(opMS, pct)
	out.metrics["work_per_s"] = work / l.wallS
	rule := "at least ten samples lie beyond it"
	if !ok {
		rule = "fewer than twenty samples, so no higher percentile has ten beyond it"
	}
	out.notes = append(out.notes,
		fmt.Sprintf("op = %s; n=%d; op_ms_tail is p%.4g (%s)", opName, len(opMS), pct, rule),
		fmt.Sprintf("work = %s; %.6g in %.3f s over %d passes", workName, work, l.wallS, len(l.passMS)+len(l.tracedMS)))
	if e.tr == nil {
		return
	}
	out.metrics["tracing.overhead_pct"] = 100 * (median(l.tracedMS)/median(l.passMS) - 1)
	self := selfByLayer(e.tr.spans)
	var total int64
	for _, d := range self {
		total += d
	}
	for _, layer := range []string{"optimizer", "core", "replay", "fleet", "surrogate", "harness"} {
		out.metrics["busy."+layer+"_pct"] = 100 * float64(self[layer]) / float64(total)
	}
}
