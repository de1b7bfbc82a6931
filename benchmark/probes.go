package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"deepbat"
	"deepbat/internal/batchopt"
	"deepbat/internal/core"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/gemm"
	"deepbat/internal/lambda"
	"deepbat/internal/loadgen"
	"deepbat/internal/nn"
	"deepbat/internal/obs"
	"deepbat/internal/opt"
	"deepbat/internal/qsim"
	"deepbat/internal/replay"
	"deepbat/internal/surrogate"
	"deepbat/internal/sweep"
	"deepbat/internal/tensor"
	"deepbat/internal/workload"
)

// runProbes is the layer tour of a traced run: every module timed on its
// own, from outside, through its exported functions. The tour is the same on
// every workload, so a layer metric can be read off any traced run; what is
// specific to the workload (busy.*, tracing.overhead_pct, runtime.*) comes
// from its traced passes.
func runProbes(e *env, m metricSet) error {
	p := &prober{e: e, m: m, reps: e.sc.probeReps}
	for _, step := range []func() error{
		p.kernels, p.training, p.inference, p.simulator, p.baseline,
		p.traces, p.serving, p.closedLoop, p.planning,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

type prober struct {
	e    *env
	m    metricSet
	reps int
	op   int // span op ids of probes count down from -1

	azure *deepbat.Trace  // paper trace the surrogate probes use
	sys   *deepbat.System // small trained system, built by training()
}

// secs times fn reps times after one warm-up call and returns the median
// seconds of one call; each timed repetition makes inner calls.
func (p *prober) secs(inner int, fn func()) float64 {
	fn()
	times := make([]float64, p.reps)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		times[r] = time.Since(t0).Seconds() / float64(inner)
	}
	return median(times)
}

// traced runs fn with the tracer on, as a probe operation of its own.
func (p *prober) traced(fn func(op int)) {
	p.op--
	p.e.tr.on = true
	fn(p.op)
	p.e.tr.on = false
}

// span records one probe call as a root span.
func (p *prober) span(name, layer string, fn func()) {
	p.traced(func(op int) {
		id := p.e.tr.begin(name, layer, -1, op)
		fn()
		p.e.tr.end(id)
	})
}

// allCPUs runs a probe that is about parallelism at the machine's core
// count; everything else in a run stays on one core.
func allCPUs(fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	fn()
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// kernels: gemm, tensor, nn, opt — the shapes DESIGN.md's kernel section and
// BenchmarkEncoderTrainStep use.
func (p *prober) kernels() error {
	rng := rand.New(rand.NewSource(p.e.seed))
	const n = 256
	a, b := make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	dst, packed := make([]float64, n*n), make([]float64, gemm.PackedLen(n, n))
	p.m["gemm.naive_256_ms"] = 1e3 * p.secs(1, func() { gemm.Naive(dst, a, b, 0, n, n, n) })
	p.m["gemm.pack_256_us"] = 1e6 * p.secs(4, func() { gemm.Pack(packed, b, n, n) })
	p.m["gemm.blocked_256_ms"] = 1e3 * p.secs(1, func() { gemm.Blocked(dst, a, packed, 0, n, n, n) })

	x256, y256 := tensor.Randn(rng, 1, n, n), tensor.Randn(rng, 1, n, n)
	xs, ws := tensor.Randn(rng, 1, 32, 16), tensor.Randn(rng, 1, 16, 16)
	enc := nn.NewEncoder(rng, 2, 16, 32, 2, 0)
	x := tensor.Randn(rng, 1, 32, 16)
	tensor.NoGrad(func() {
		p.m["tensor.matmul_256_ms"] = 1e3 * p.secs(1, func() { tensor.MatMul(x256, y256) })
		p.m["tensor.matmul_32x16x16_us"] = 1e6 * p.secs(256, func() { tensor.MatMul(xs, ws) })
		p.m["nn.encoder_forward_nograd_ms"] = 1e3 * p.secs(16, func() { enc.Forward(x) })
	})
	p.m["nn.encoder_forward_tape_ms"] = 1e3 * p.secs(16, func() { enc.Forward(x) })

	// One encoder training step, as BenchmarkEncoderTrainStep takes it, with
	// the backward pass and the Adam update timed separately.
	adam := opt.NewAdam(enc.Params(), 1e-3)
	var backward, step []float64
	for r := 0; r < 4*p.reps; r++ {
		y := enc.Forward(x)
		loss := tensor.SumAll(tensor.Mul(y, y))
		t0 := time.Now()
		tensor.Backward(loss)
		t1 := time.Now()
		adam.Step()
		t2 := time.Now()
		adam.ZeroGrad()
		backward = append(backward, t1.Sub(t0).Seconds())
		step = append(step, t2.Sub(t1).Seconds())
	}
	p.m["tensor.backward_ms"] = 1e3 * median(backward)
	p.m["opt.adam_step_us"] = 1e6 * median(step)
	return nil
}

// training: the surrogate's write side at the train workload's size, leaving
// behind the trained system the inference probes read.
func (p *prober) training() error {
	var err error
	if p.azure, err = paperTrace(p.e, "azure", p.e.seed); err != nil {
		return err
	}
	data, err := pretrainTrace(p.e)
	if err != nil {
		return err
	}
	var pre *pretrained
	p.traced(func(op int) { pre, err = pretrain(p.e, data, -1, op) })
	if err != nil {
		return err
	}
	p.sys = pre.sys
	model, epochs := pre.sys.Model, float64(len(pre.epochMS))
	p.m["surrogate.build_ms"] = 1e3 * pre.buildS
	p.m["surrogate.fit_norm_us"] = 1e6 * pre.fitS
	p.m["surrogate.train_epoch_ms"] = median(pre.epochMS)
	p.m["surrogate.train_allocs_per_epoch"] = float64(pre.mallocs) / epochs
	p.m["surrogate.train_mb_per_epoch"] = float64(pre.allocated) / epochs / (1 << 20)
	p.m["surrogate.val_mape_pct"] = pre.mapePct
	p.m["surrogate.eval_mape_ms"] = 1e3 * p.secs(1, func() { model.EvalMAPE(pre.val) })

	var buf bytes.Buffer
	p.m["surrogate.save_ms"] = 1e3 * p.secs(1, func() {
		buf.Reset()
		err = model.Save(&buf)
	})
	if err != nil {
		return err
	}
	var loaded *surrogate.Model
	p.m["surrogate.load_ms"] = 1e3 * p.secs(1, func() { loaded, err = surrogate.Load(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return err
	}
	p.e.checks.expect(loaded.NumParams() == model.NumParams(), "probe: loaded model has %d parameters, saved one %d", loaded.NumParams(), model.NumParams())
	return nil
}

// inference: one Decide taken apart. Decide is Grid.Configs + PredictGrid +
// an argmin scan; PredictGrid is one encode + the row-batched head. The
// parts, timed on their own over the same windows, must add up to Decide.
func (p *prober) inference() error {
	o, model := p.sys.Optimizer, p.sys.Model
	cfgs := o.Grid.Configs()
	n := model.Cfg.SeqLen
	windows := decisionWindows(p.azure, n)
	if len(windows) == 0 {
		return fmt.Errorf("probe: trace shorter than one model window")
	}
	first, err := o.Decide(windows[0])
	if err != nil {
		return err
	}
	eff := first.EffectiveSLO
	each := func(fn func(w []float64)) func() {
		return func() {
			for _, w := range windows {
				fn(w)
			}
		}
	}
	per := float64(len(windows))
	var preds []surrogate.Prediction
	var sink int
	scanPreds := func() { sink += argmin(preds, model.Cfg, o.Pct, eff) }

	// The whole and its parts are timed in turn within each repetition, and
	// the ratio is taken per repetition: the machine's speed drifts by more
	// than the 10 % the parts must add up within, but not inside one turn.
	var decideErr error
	whole := each(func(w []float64) {
		if _, err := o.Decide(w); err != nil {
			decideErr = err
		}
	})
	parts := []func(){
		whole,
		each(func(w []float64) { preds = model.PredictGrid(w, cfgs) }),
		func() { tensor.NoGrad(each(func(w []float64) { model.EncodeSequence(w) })) },
		each(func(w []float64) { model.Predict(w, cfgs[0]) }),
		each(func([]float64) { sink += len(o.Grid.Configs()) }),
		each(func([]float64) { scanPreds() }),
	}
	times := make([][]float64, len(parts))
	var ratios []float64
	for rep := -1; rep < 3*p.reps; rep++ { // rep -1 warms up
		var turn []float64
		for _, fn := range parts {
			t0 := time.Now()
			fn()
			turn = append(turn, time.Since(t0).Seconds()/per)
		}
		if rep < 0 {
			continue
		}
		for k, t := range turn {
			times[k] = append(times[k], t)
		}
		ratios = append(ratios, (turn[4]+turn[1]+turn[5])/turn[0])
	}
	if decideErr != nil {
		return decideErr
	}
	decide, grid, encode, one, configs, scan := median(times[0]), median(times[1]), median(times[2]), median(times[3]), median(times[4]), median(times[5])

	// One decomposed decision as a span tree, for the trace file.
	p.span("decide.parts", "optimizer", func() {
		root := len(p.e.tr.spans) - 1
		id := p.e.tr.begin("Grid.Configs", "optimizer", root, p.op)
		cs := o.Grid.Configs()
		p.e.tr.end(id)
		id = p.e.tr.begin("Model.PredictGrid", "surrogate", root, p.op)
		preds = model.PredictGrid(windows[0], cs)
		p.e.tr.end(id)
		id = p.e.tr.begin("argmin", "optimizer", root, p.op)
		scanPreds()
		p.e.tr.end(id)
	})

	feasible := 0
	for _, pr := range preds {
		if tail, _ := pr.Percentile(model.Cfg, o.Pct); tail <= eff {
			feasible++
		}
	}
	n0, b0 := mallocs()
	const allocRuns = 64
	for i := 0; i < allocRuns; i++ {
		if _, err := o.Decide(windows[i%len(windows)]); err != nil {
			return err
		}
	}
	n1, b1 := mallocs()

	p.m["optimizer.decide_ms"] = 1e3 * decide
	p.m["surrogate.predict_grid_ms"] = 1e3 * grid
	p.m["surrogate.encode_ms"] = 1e3 * encode
	p.m["surrogate.head_ms"] = 1e3 * (grid - encode)
	p.m["surrogate.predict_one_us"] = 1e6 * one
	p.m["optimizer.configs_us"] = 1e6 * configs
	p.m["optimizer.argmin_us"] = 1e6 * scan
	p.m["optimizer.parts_over_whole"] = median(ratios)
	p.m["optimizer.decide_allocs"] = float64(n1-n0) / allocRuns
	p.m["optimizer.decide_bytes"] = float64(b1-b0) / allocRuns
	p.m["optimizer.feasible_frac"] = float64(feasible) / float64(len(preds))
	ratio := p.m["optimizer.parts_over_whole"]
	p.e.checks.expect(ratio > 0.9 && ratio < 1.1, "probe: Decide's parts sum to %.3f of Decide (configs %.1f us + predict_grid %.1f us + argmin %.1f us vs %.1f us)",
		ratio, 1e6*configs, 1e6*grid, 1e6*scan, 1e6*decide)

	// The closed-loop engine around the decisions: what is not Decide is the
	// engine's own work (period slicing plus qsim.Run of every period).
	dec := &timedDecider{inner: p.sys.Decider(), seqLen: n}
	var replayErr error
	engine := p.secs(1, func() {
		dec.ms = dec.ms[:0]
		_, replayErr = p.sys.Replay(p.azure.Timestamps, dec, core.DefaultReplayOptions(p.sys.Opts.SLO))
	})
	if replayErr != nil {
		return replayErr
	}
	p.m["core.engine_replay_ms"] = 1e3 * engine
	p.m["core.engine_self_ms"] = 1e3*engine - sum(dec.ms)
	_ = sink
	return nil
}

func (p *prober) simulator() error {
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	cfg := lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	var err error
	run := p.secs(1, func() { _, err = sim.Run(p.azure.Timestamps, cfg) })
	if err != nil {
		return err
	}
	p.m["qsim.run_ms_per_100k"] = 1e3 * run * 1e5 / float64(len(p.azure.Timestamps))
	inter := p.azure.Interarrivals()
	window := inter[len(inter)/2 : len(inter)/2+p.sys.Model.Cfg.SeqLen]
	pcts := p.sys.Model.Cfg.Percentiles
	p.m["qsim.evaluate_us"] = 1e6 * p.secs(64, func() { _, err = sim.Evaluate(window, cfg, pcts) })
	return err
}

// baseline: one BATCH decision on the window the Section IV-F timing
// experiment uses, against DeepBAT's decision on the same grid. The ratio is
// the paper's headline figure (55.93x there); it is reported, never gated.
func (p *prober) baseline() error {
	inter := p.azure.LastHours(p.e.sc.traceHours / 2).Interarrivals()
	pl := batchopt.NewPipeline(lambda.DefaultProfile(), lambda.DefaultPricing(), p.sys.Opts.Grid, p.sys.Opts.SLO)
	if p.e.sc.batchSteps > 0 {
		pl.Analyzer.GridSteps = p.e.sc.batchSteps
	}
	var err error
	t0 := time.Now()
	p.span("batchopt.Pipeline.Decide", "batchopt", func() { _, err = pl.Decide(inter[:len(inter)/2]) })
	if err != nil {
		return err
	}
	s := time.Since(t0).Seconds()
	p.m["batchopt.decide_s"] = s
	p.m["batchopt.speedup_vs_decide"] = s / (p.m["optimizer.decide_ms"] / 1e3)
	return nil
}

func (p *prober) traces() error {
	spec := workload.DefaultSpec("flashcrowd")
	spec.Hours = p.e.sc.zooHours
	spec.Seed = p.e.seed
	var t *workload.Trace
	var enc []byte
	var err error
	p.m["workload.generate_ms"] = 1e3 * p.secs(1, func() { t, err = workload.Generate(spec) })
	if err != nil {
		return err
	}
	p.m["workload.digest_ms"] = 1e3 * p.secs(1, func() { _, err = workload.Digest(t) })
	if err != nil {
		return err
	}
	p.m["workload.encode_ms"] = 1e3 * p.secs(1, func() { enc, err = workload.EncodeBytes(t) })
	if err != nil {
		return err
	}
	p.m["workload.decode_ms"] = 1e3 * p.secs(1, func() { _, err = workload.DecodeBytes(enc) })
	p.m["workload.requests"] = float64(len(t.Reqs))
	return err
}

// closedLoop: the same gateway layer on the wall clock under concurrent
// callers — B=1, instant backend, one shard — at one client and at one per
// CPU. closed_scaling is the throughput ratio sharding has to earn.
func (p *prober) closedLoop() error {
	requests := p.e.sc.closedRequests
	perReq := func(clients int) (float64, error) {
		var err error
		var rep loadgen.Report
		s := p.secs(1, func() {
			rep, err = loadgen.RunClosed(loadgen.Config{
				Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1}, Shards: 1, SLO: serveSLO,
				Clients: clients, Requests: requests / clients, Seed: p.e.seed,
			})
		})
		if err == nil && (rep.Failed != 0 || rep.Served != requests/clients*clients) {
			err = fmt.Errorf("probe: closed loop served %d, failed %d of %d", rep.Served, rep.Failed, requests)
		}
		return s / float64(requests/clients*clients), err
	}
	var c1, cn float64
	var err error
	allCPUs(func() {
		if c1, err = perReq(1); err == nil {
			cn, err = perReq(runtime.NumCPU())
		}
	})
	if err != nil {
		return err
	}
	p.m["gateway.closed_do_ns_c1"] = 1e9 * c1
	p.m["gateway.closed_do_ns_cN"] = 1e9 * cn
	p.m["gateway.closed_scaling"] = c1 / cn
	return nil
}

// planning: the timed cell of the plan workload taken apart — the solo
// ground-truth searches the planner makes per class, and what the merge pass
// costs on top of them.
func (p *prober) planning() error {
	cache := workload.NewCache()
	cells, err := planCells(p.e, cache)
	if err != nil {
		return err
	}
	var cell planCell
	for _, c := range cells {
		if c.timed {
			cell = c
		}
	}
	var a *fleet.Assignment
	serial := p.secs(1, func() { a, err = fleet.Optimize(cell.plan, cell.windows, fleet.OptimizerConfig{Workers: 1}) })
	if err != nil {
		return err
	}
	var parallel float64
	allCPUs(func() {
		parallel = p.secs(1, func() { _, err = fleet.Optimize(cell.plan, cell.windows, fleet.OptimizerConfig{Workers: 0}) })
	})
	if err != nil {
		return err
	}
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	sim.Opts.Workers = 1
	grid := lambda.DefaultGrid()
	var solo []float64
	for i, w := range cell.windows {
		solo = append(solo, p.secs(1, func() { _, _, err = sim.GroundTruthBest(w, grid, cell.plan.Classes[i].SLO, 95) }))
		if err != nil {
			return err
		}
	}
	var fleetErr error
	runFleet := p.secs(1, func() {
		_, fleetErr = replay.RunFleet(replay.FleetConfig{Trace: cell.trace, Plan: cell.plan, Assignment: a, Cache: cache})
	})
	if fleetErr != nil {
		return fleetErr
	}
	classes := len(cell.plan.Classes)
	p.m["fleet.optimize_s"] = serial
	p.m["fleet.optimize_parallel_s"] = parallel
	p.m["fleet.optimize_scaling"] = serial / parallel
	p.m["qsim.ground_truth_best_s"] = solo[0]
	p.m["fleet.merge_self_s"] = serial - sum(solo)
	p.m["fleet.groups"] = float64(len(a.Groups))
	p.m["fleet.merges_accepted_frac"] = float64(classes-len(a.Groups)) / float64(classes-1)
	p.m["replay.run_fleet_ms"] = 1e3 * runFleet
	allCPUs(func() {
		p.m["sweep.dispatch_us"] = 1e6 * p.secs(1, func() {
			err = sweep.Run(sweep.Options{Workers: 4}, 1024, func(*sweep.Cell) error { return nil })
		})
	})
	if err != nil {
		return err
	}

	// Multi-class routing through the fleet front door: Submit + Wait at
	// B=1, so every request dispatches on its own.
	one := &fleet.ConfigSpec{MemoryMB: 2048, BatchSize: 1}
	f, err := fleet.New(fleet.Plan{Classes: []fleet.ClassSpec{
		{Name: "a", SLO: serveSLO, Shards: 1, Initial: one},
		{Name: "b", SLO: serveSLO, Shards: 1, Initial: one},
	}}, fleet.Options{Clock: &obs.ManualClock{}, VirtualTimers: true})
	if err != nil {
		return err
	}
	defer f.Stop()
	const submits = 1 << 15
	failed := 0
	p.m["fleet.submit_ns"] = 1e9 * p.secs(1, func() {
		for i := 0; i < submits; i++ {
			if f.Submit(i&1).Wait().Error != "" {
				failed++
			}
		}
	}) / submits
	p.e.checks.expect(failed == 0, "probe: %d fleet submits failed", failed)
	return nil
}

// timingBackend times a sample of the backend invocations the gateway makes
// and counts all of them.
type timingBackend struct {
	inner   gateway.Backend
	sample  *sampler
	batches int
	busy    time.Duration
	timed   int
}

func (b *timingBackend) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	b.batches++
	if !b.sample.hit() {
		return b.inner.Execute(cfg, batchSize)
	}
	t0 := time.Now()
	d, c, err := b.inner.Execute(cfg, batchSize)
	b.busy += time.Since(t0)
	b.timed++
	return d, c, err
}

// sampler picks one call in 64 with a linear congruential generator rather
// than a stride: a stride would lock onto the phase of the batch (every
// fourth Submit dispatches) and time only one kind of call. A nil sampler
// never hits — the untimed driver.
type sampler struct{ x uint64 }

func (s *sampler) hit() bool {
	if s == nil {
		return false
	}
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return s.x>>58 == 0
}

// busyTime accumulates sampled call durations; mean() is the per-call time.
type busyTime struct {
	sum   time.Duration
	timed int
}

func (b *busyTime) mean() float64 {
	if b.timed == 0 {
		return 0
	}
	return float64(b.sum.Nanoseconds()) / float64(b.timed)
}
