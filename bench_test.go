// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one Benchmark per artifact, backed by internal/experiments at
// the quick lab scale) plus micro-benchmarks of the substrate kernels. Run:
//
//	go test -bench=. -benchmem
//
// The first figure benchmark to run pays for pre-training the shared lab's
// surrogate; subsequent ones reuse the cached model and replays.
package deepbat_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"deepbat"
	"deepbat/internal/arrival"
	"deepbat/internal/batchopt"
	"deepbat/internal/experiments"
	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/nn"
	"deepbat/internal/obs"
	"deepbat/internal/qsim"
	"deepbat/internal/replay"
	"deepbat/internal/tensor"
	"deepbat/internal/trace"
	"deepbat/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab() *experiments.Lab {
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.QuickLabConfig())
	})
	return benchLab
}

// benchExperiment runs one experiment per iteration (cached state in the
// shared lab makes iterations after the first cheap).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(lab(), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkFig1Sweeps(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig4ArrivalRates(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5IDC(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6AzureCost(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7Alibaba(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8VCRAlibaba(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9Synthetic(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10VCRSynthetic(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Configs(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12SLOSweep(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13CDFs(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14Attention(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15aSeqLen(b *testing.B)      { benchExperiment(b, "fig15a") }
func BenchmarkFig15bLayers(b *testing.B)      { benchExperiment(b, "fig15b") }
func BenchmarkTimingSpeedup(b *testing.B)     { benchExperiment(b, "timing") }
func BenchmarkAblations(b *testing.B)         { benchExperiment(b, "ablations") }

// --- substrate micro-benchmarks ---

func BenchmarkTensorMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 64, 64)
	y := tensor.Randn(rng, 1, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkTensorMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 256, 256)
	y := tensor.Randn(rng, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkEncoderForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	enc := nn.NewEncoder(rng, 2, 16, 32, 2, 0)
	x := tensor.Randn(rng, 1, 64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Forward(x)
	}
}

func BenchmarkEncoderTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	enc := nn.NewEncoder(rng, 2, 16, 32, 2, 0)
	x := tensor.Randn(rng, 1, 64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := enc.Forward(x)
		loss := tensor.SumAll(tensor.Mul(y, y))
		tensor.Backward(loss)
		for _, p := range enc.Params() {
			p.ZeroGrad()
		}
	}
}

// benchTrainDataset fabricates a labeled dataset directly so the training
// benchmarks measure the optimizer loop, not the simulator.
func benchTrainDataset(n, seqLen int) *deepbat.Dataset {
	rng := rand.New(rand.NewSource(7))
	cfgs := deepbat.DefaultGrid().Configs()
	pcts := []float64{50, 75, 90, 95, 99}
	ds := &deepbat.Dataset{Percentiles: pcts}
	for i := 0; i < n; i++ {
		seq := make([]float64, seqLen)
		for j := range seq {
			seq[j] = 0.005 + 0.01*rng.Float64()
		}
		target := make([]float64, 1+len(pcts))
		target[0] = 2e-6
		base := 0.02
		for j := 1; j < len(target); j++ {
			base += 0.01 * rng.Float64()
			target[j] = base
		}
		ds.Samples = append(ds.Samples, deepbat.Sample{
			Seq: seq, Config: cfgs[rng.Intn(len(cfgs))], Target: target,
		})
	}
	return ds
}

// benchTrainEpoch measures one full training epoch (forward + backward +
// Adam) over a 64-sample synthetic dataset with the given worker count
// (0 = GOMAXPROCS). Comparing the Serial and Parallel variants shows the
// data-parallel minibatch speedup on multi-core machines; comparing Serial
// and Obs (one worker, recording into a metric registry) shows what the
// training instrumentation costs.
func benchTrainEpoch(b *testing.B, workers int, instrumented bool) {
	b.Helper()
	ds := benchTrainDataset(64, 32)
	mc := deepbat.DefaultOptions().Model
	mc.SeqLen = 32
	tc := deepbat.DefaultOptions().Train
	tc.Epochs = 1
	tc.Workers = workers
	if instrumented {
		tc.Obs = obs.NewRegistry()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := deepbat.NewModel(mc)
		m.FitNormalization(ds)
		b.StartTimer()
		if _, err := m.Train(ds, nil, tc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochSerial(b *testing.B)   { benchTrainEpoch(b, 1, false) }
func BenchmarkTrainEpochParallel(b *testing.B) { benchTrainEpoch(b, 0, false) }
func BenchmarkTrainEpochObs(b *testing.B)      { benchTrainEpoch(b, 1, true) }

func BenchmarkQsimRun(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g, err := arrival.NewGen(arrival.Poisson(100), rng)
	if err != nil {
		b.Fatal(err)
	}
	ts := g.SampleUntil(60)
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	cfg := lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ts, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ts)), "requests/op")
}

func BenchmarkBatchAnalyze(b *testing.B) {
	m := arrival.MMPP2(150, 20, 1, 0.8)
	a := batchopt.NewAnalyzer(lambda.DefaultProfile(), lambda.DefaultPricing())
	cfg := lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMAPSample(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, err := arrival.NewGen(arrival.MMPP2(100, 5, 0.5, 0.5), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkFitMMPP2(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g, err := arrival.NewGen(arrival.MMPP2(100, 5, 0.2, 0.2), rng)
	if err != nil {
		b.Fatal(err)
	}
	xs := g.Sample(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arrival.FitMMPP2(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace.MustGenerate(trace.Spec{Name: "synthetic", Hours: 2, HourSeconds: 30, Seed: int64(i + 1)})
	}
}

// BenchmarkDecide measures one full DeepBAT decision (encode the window once
// + score the whole grid) on the shared lab's pre-trained model — the
// "milliseconds for identifying the configuration" path of Section IV-F.
func BenchmarkDecide(b *testing.B) {
	sys, err := lab().BaseSystem()
	if err != nil {
		b.Fatal(err)
	}
	inter := lab().Trace("azure").Interarrivals()
	window := inter[:sys.Model.Cfg.SeqLen]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Decide(window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBATCHDecide measures one full BATCH decision (MAP fit + solving
// the analytical model for every grid configuration) for comparison against
// BenchmarkDecide — this pair reproduces the Section IV-F speedup.
func BenchmarkBATCHDecide(b *testing.B) {
	inter := lab().Trace("azure").Interarrivals()
	window := inter[:2000]
	pl := batchopt.NewPipeline(lambda.DefaultProfile(), lambda.DefaultPricing(),
		lab().Cfg.Grid, lab().Cfg.SLO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Decide(window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridPredict isolates the encode-once fast path: scoring the full
// candidate grid against a pre-encoded sequence.
func BenchmarkGridPredict(b *testing.B) {
	sys, err := lab().BaseSystem()
	if err != nil {
		b.Fatal(err)
	}
	inter := lab().Trace("azure").Interarrivals()
	window := inter[:sys.Model.Cfg.SeqLen]
	cfgs := deepbat.DefaultGrid().Configs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Model.PredictGrid(window, cfgs)
	}
}

// planWindows is the repo benchmark's timed plan cell: corrburst 12 h x 1 s,
// 3 classes, class i's SLO 0.2 s x 4^i, merging on.
func planWindows(b *testing.B) (fleet.Plan, [][]float64) {
	spec := workload.DefaultSpec("corrburst")
	spec.Hours, spec.HourSeconds, spec.Classes, spec.Seed = 12, 1, 3, 1
	t, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	p := fleet.Plan{Merge: true}
	windows := make([][]float64, spec.Classes)
	for i, name := range t.Header.Classes {
		p.Classes = append(p.Classes, fleet.ClassSpec{Name: name, SLO: 0.2 * math.Pow(4, float64(i)), Shards: 1})
	}
	for _, rq := range t.Reqs {
		windows[rq.Class] = append(windows[rq.Class], rq.AtS)
	}
	return p, windows
}

// BenchmarkGroundTruthBest is one serial grid search over the plan cell's
// first class window — the unit fleet.Optimize repeats per solo unit and per
// merge candidate.
func BenchmarkGroundTruthBest(b *testing.B) {
	p, windows := planWindows(b)
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	sim.Opts.Workers = 1
	grid := lambda.DefaultGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.GroundTruthBest(windows[0], grid, p.Classes[0].SLO, 95); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(windows[0])), "requests/op")
}

// BenchmarkReplayRun is one pass of the repo benchmark's serve-replay
// workload at seed 1: the eight zoo traces at 8 paper-hours through
// replay.Run at M=2048MB B=4 T=100ms, Shards 1, SLO 0.2 s, then the first of
// them again against a 2 %-faulty backend with four retries. Its figures are
// per replayed request, so passes of any size compare.
func BenchmarkReplayRun(b *testing.B) {
	cache := workload.NewCache()
	var configs []replay.Config
	requests := 0
	for _, name := range workload.Names() {
		spec := workload.DefaultSpec(name)
		spec.Hours, spec.Seed = 8, 1
		t, err := cache.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cache.Digest(t); err != nil {
			b.Fatal(err)
		}
		configs = append(configs, replay.Config{
			Trace: t, Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1},
			Shards: 1, SLO: 0.2, Cache: cache,
		})
		requests += len(t.Reqs)
	}
	faulted := configs[0]
	faulted.Fault = fault.Plan{Seed: 1, ErrorRate: 0.02}
	faulted.Resilience = gateway.Resilience{MaxRetries: 4}
	configs = append(configs, faulted)
	requests += len(faulted.Trace.Reqs)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			if _, err := replay.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(requests)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/request")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/request")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/request")
}

// BenchmarkFleetOptimize is the repo benchmark's plan op: solo searches plus
// the merge pass at Workers 1.
func BenchmarkFleetOptimize(b *testing.B) {
	p, windows := planWindows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Optimize(p, windows, fleet.OptimizerConfig{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
