package deepbat

import (
	"path/filepath"
	"testing"
)

// fastOptions shrinks everything for test speed.
func fastOptions() Options {
	opts := DefaultOptions()
	opts.Model.SeqLen = 16
	opts.Model.Dropout = 0
	opts.DatasetSamples = 120
	opts.Train.Epochs = 6
	opts.Grid = Grid{
		Memories:  []float64{1024, 2048},
		Batches:   []int{1, 4, 8},
		TimeoutsS: []float64{0.02, 0.08},
	}
	return opts
}

func fastTrace(t *testing.T, name string, hours int) *Trace {
	t.Helper()
	tr, err := GenerateTrace(TraceSpec{Name: name, Hours: hours, HourSeconds: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func trainFast(t *testing.T) *System {
	t.Helper()
	sys, err := Train(fastTrace(t, "twitter", 2), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTraceNames(t *testing.T) {
	if len(TraceNames()) != 4 {
		t.Fatalf("TraceNames = %v", TraceNames())
	}
}

func TestTrainAndDecide(t *testing.T) {
	sys := trainFast(t)
	window := make([]float64, 16)
	for i := range window {
		window[i] = 0.01
	}
	dec, err := sys.Decide(window)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Config.Valid() {
		t.Fatalf("decision config %v invalid", dec.Config)
	}
	if dec.Evaluated != sys.Opts.Grid.Size() {
		t.Fatalf("evaluated %d configs", dec.Evaluated)
	}
}

func TestSystemReplayWithAllDeciders(t *testing.T) {
	sys := trainFast(t)
	tr := fastTrace(t, "twitter", 1)
	opts := ReplayOptions{
		PeriodS:       10,
		DecideEvery:   1,
		LookbackS:     30,
		InitialConfig: Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05},
		SLO:           0.1,
	}
	for _, dec := range []Decider{
		sys.Decider(),
		sys.Oracle(),
		sys.Static(opts.InitialConfig),
	} {
		res, err := sys.Replay(tr.Timestamps, dec, opts)
		if err != nil {
			t.Fatalf("%s: %v", dec.Name(), err)
		}
		if len(res.Latencies()) != len(tr.Timestamps) {
			t.Fatalf("%s served %d of %d", dec.Name(), len(res.Latencies()), len(tr.Timestamps))
		}
	}
}

func TestSystemReplayBATCH(t *testing.T) {
	if testing.Short() {
		t.Skip("BATCH analytic replay is slow")
	}
	sys := trainFast(t)
	tr := fastTrace(t, "twitter", 1)
	opts := ReplayOptions{
		PeriodS:       10,
		DecideEvery:   1,
		LookbackS:     30,
		InitialConfig: Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05},
		SLO:           0.1,
	}
	res, err := sys.Replay(tr.Timestamps, sys.BATCHBaseline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions == 0 {
		t.Fatal("BATCH made no decisions")
	}
}

func TestFineTune(t *testing.T) {
	sys := trainFast(t)
	ood := fastTrace(t, "synthetic", 1)
	if err := sys.FineTune(ood, 40); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadSystem(t *testing.T) {
	sys := trainFast(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := sys.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(path, sys.Opts)
	if err != nil {
		t.Fatal(err)
	}
	window := make([]float64, 16)
	for i := range window {
		window[i] = 0.02
	}
	d1, err := sys.Decide(window)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loaded.Decide(window)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Config != d2.Config {
		t.Fatalf("loaded system decided %v, original %v", d2.Config, d1.Config)
	}
}

func TestLoadSystemMissingFile(t *testing.T) {
	if _, err := LoadSystem("/nonexistent/model.gob", DefaultOptions()); err == nil {
		t.Fatal("expected error")
	}
}

func TestCalibrateGamma(t *testing.T) {
	sys := trainFast(t)
	tr := fastTrace(t, "synthetic", 1)
	inter := tr.Interarrivals()
	probe := Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	g, err := sys.CalibrateGamma(inter, probe)
	if err != nil {
		t.Fatal(err)
	}
	if g < 0 || g > 0.5 {
		t.Fatalf("gamma = %v, want within [0, 0.5]", g)
	}
	if sys.Optimizer.Gamma != g {
		t.Fatal("gamma not installed on the optimizer")
	}
	if _, err := sys.CalibrateGamma(inter[:4], probe); err == nil {
		t.Fatal("expected error for short window")
	}
}

// TestHeadlineClaim asserts the paper's central result end-to-end at test
// scale: against the same workload, DeepBAT (1) keeps SLO violations at or
// below those of an aggressive cheap static configuration, and (2) serves
// cheaper than a conservative always-safe static configuration.
func TestHeadlineClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replay is slow")
	}
	day := fastTrace(t, "azure", 4)
	opts := fastOptions()
	opts.DatasetSamples = 300
	opts.Train.Epochs = 10
	sys, err := Train(day.FirstHours(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	serve := day.LastHours(2)
	ro := ReplayOptions{
		PeriodS:       5,
		DecideEvery:   1,
		LookbackS:     30,
		InitialConfig: Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05},
		SLO:           0.1,
	}
	deep, err := sys.Replay(serve.Timestamps, sys.Decider(), ro)
	if err != nil {
		t.Fatal(err)
	}
	// Aggressive static: maximal batching at low memory — cheap but slow.
	cheap, err := sys.Replay(serve.Timestamps,
		sys.Static(Config{MemoryMB: 1024, BatchSize: 8, TimeoutS: 0.1}), ro)
	if err != nil {
		t.Fatal(err)
	}
	// Conservative static: no batching at high memory — safe but expensive.
	safe, err := sys.Replay(serve.Timestamps,
		sys.Static(Config{MemoryMB: 4096, BatchSize: 1, TimeoutS: 0}), ro)
	if err != nil {
		t.Fatal(err)
	}
	if deep.VCR() > cheap.VCR()+1 {
		t.Fatalf("DeepBAT VCR %.2f%% worse than aggressive static %.2f%%", deep.VCR(), cheap.VCR())
	}
	if deep.CostPerRequest() >= safe.CostPerRequest() {
		t.Fatalf("DeepBAT cost %v not below conservative static %v",
			deep.CostPerRequest(), safe.CostPerRequest())
	}
	if deep.VCR() > 10 {
		t.Fatalf("DeepBAT VCR %.2f%% too high in-distribution", deep.VCR())
	}
}

func TestSetGamma(t *testing.T) {
	sys := trainFast(t)
	sys.SetGamma(0.2)
	window := make([]float64, 16)
	for i := range window {
		window[i] = 0.01
	}
	dec, err := sys.Decide(window)
	if err != nil {
		t.Fatal(err)
	}
	if dec.EffectiveSLO >= sys.Opts.SLO {
		t.Fatalf("gamma did not tighten SLO: %v", dec.EffectiveSLO)
	}
}
