package surrogate

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"deepbat/internal/lambda"
	"deepbat/internal/qsim"
	"deepbat/internal/trace"
)

// tinyModelConfig keeps unit tests fast.
func tinyModelConfig() ModelConfig {
	cfg := DefaultModelConfig()
	cfg.SeqLen = 16
	cfg.Dropout = 0
	return cfg
}

func tinyGrid() lambda.Grid {
	return lambda.Grid{
		Memories:  []float64{1024, 2048},
		Batches:   []int{1, 4, 8},
		TimeoutsS: []float64{0.02, 0.08},
	}
}

// tinyDataset builds a small labeled dataset from the twitter trace.
func tinyDataset(t *testing.T, n, seqLen int) *Dataset {
	t.Helper()
	spec := trace.Spec{Name: "twitter", Hours: 2, HourSeconds: 60, Seed: 3}
	tr := trace.MustGenerate(spec)
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	opts := DefaultBuildOptions(tinyGrid())
	opts.NumSamples = n
	opts.SeqLen = seqLen
	ds, err := Build(tr, sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewModelParams(t *testing.T) {
	m := NewModel(tinyModelConfig())
	if m.NumParams() == 0 {
		t.Fatal("model has no parameters")
	}
	if got := m.Cfg.OutputDim(); got != 6 {
		t.Fatalf("OutputDim = %d, want 6 (cost + 5 percentiles)", got)
	}
	for _, bad := range []func(*ModelConfig){
		func(c *ModelConfig) { c.SeqLen = 0 },
		func(c *ModelConfig) { c.Heads = 3 },
		func(c *ModelConfig) { c.Dropout = 1 },
		func(c *ModelConfig) { c.Dropout = -0.1 },
		func(c *ModelConfig) { c.Dropout = math.NaN() },
	} {
		cfg := tinyModelConfig()
		bad(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModel accepted %+v", cfg)
				}
			}()
			NewModel(cfg)
		}()
	}
}

func TestPredictShapesAndDeterminism(t *testing.T) {
	m := NewModel(tinyModelConfig())
	seq := make([]float64, 16)
	for i := range seq {
		seq[i] = 0.01 * float64(i+1)
	}
	cfg := lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	p1 := m.Predict(seq, cfg)
	p2 := m.Predict(seq, cfg)
	if p1.CostPerRequest != p2.CostPerRequest {
		t.Fatal("prediction not deterministic in eval mode")
	}
	if len(p1.Percentiles) != 5 {
		t.Fatalf("percentile vector length = %d", len(p1.Percentiles))
	}
	if v, ok := p1.Percentile(m.Cfg, 95); !ok || v != p1.Percentiles[3] {
		t.Fatalf("Percentile lookup broken: %v %v", v, ok)
	}
	if _, ok := p1.Percentile(m.Cfg, 42); ok {
		t.Fatal("unknown percentile should not resolve")
	}
}

func TestPredictGridMatchesPredict(t *testing.T) {
	m := NewModel(tinyModelConfig())
	seq := make([]float64, 16)
	for i := range seq {
		seq[i] = 0.005 + 0.001*float64(i%7)
	}
	cfgs := tinyGrid().Configs()
	grid := m.PredictGrid(seq, cfgs)
	if len(grid) != len(cfgs) {
		t.Fatalf("PredictGrid returned %d of %d", len(grid), len(cfgs))
	}
	for i, cfg := range cfgs {
		single := m.Predict(seq, cfg)
		if math.Abs(grid[i].CostPerRequest-single.CostPerRequest) > 1e-12 {
			t.Fatalf("cfg %v: grid cost %v vs single %v", cfg, grid[i].CostPerRequest, single.CostPerRequest)
		}
		for j := range single.Percentiles {
			if math.Abs(grid[i].Percentiles[j]-single.Percentiles[j]) > 1e-12 {
				t.Fatalf("cfg %v percentile %d mismatch", cfg, j)
			}
		}
	}
}

func TestBuildDataset(t *testing.T) {
	ds := tinyDataset(t, 50, 16)
	if ds.Len() != 50 {
		t.Fatalf("dataset size = %d", ds.Len())
	}
	for _, s := range ds.Samples {
		if len(s.Seq) != 16 {
			t.Fatalf("sample seq length = %d", len(s.Seq))
		}
		if len(s.Target) != 6 {
			t.Fatalf("target length = %d", len(s.Target))
		}
		if s.Target[0] <= 0 {
			t.Fatal("cost target must be positive")
		}
		for i := 2; i < len(s.Target); i++ {
			if s.Target[i] < s.Target[i-1]-1e-12 {
				t.Fatalf("percentile targets not monotone: %v", s.Target)
			}
		}
	}
	train, val := ds.Split(0.2)
	if train.Len()+val.Len() != 50 || val.Len() != 10 {
		t.Fatalf("split sizes %d/%d", train.Len(), val.Len())
	}
}

func TestBuildErrors(t *testing.T) {
	spec := trace.Spec{Name: "twitter", Hours: 1, HourSeconds: 5, Seed: 3}
	tr := trace.MustGenerate(spec)
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	for _, tc := range []struct {
		name string
		edit func(*BuildOptions)
	}{
		{"oversized window", func(o *BuildOptions) { o.SeqLen = 1 << 30 }},
		{"zero window", func(o *BuildOptions) { o.SeqLen = 0 }},
		{"negative window", func(o *BuildOptions) { o.SeqLen = -4 }},
		{"empty grid", func(o *BuildOptions) { o.SeqLen, o.Grid = 8, lambda.Grid{} }},
		{"zero samples", func(o *BuildOptions) { o.SeqLen, o.NumSamples = 8, 0 }},
	} {
		opts := DefaultBuildOptions(tinyGrid())
		tc.edit(&opts)
		if _, err := Build(tr, sim, opts); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// TestBuildDeterministicAcrossGOMAXPROCS labels one dataset with the sweep
// running inline (GOMAXPROCS 1) and on a four-worker pool, and requires
// bitwise-equal samples.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	build := func(procs int) *Dataset {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return tinyDataset(t, 40, 16)
	}
	want, got := build(1), build(4)
	for i, w := range want.Samples {
		g := got.Samples[i]
		if g.Config != w.Config || !sameBits(g.Seq, w.Seq) || !sameBits(g.Target, w.Target) {
			t.Fatalf("sample %d differs: GOMAXPROCS 4 %+v, GOMAXPROCS 1 %+v", i, g, w)
		}
	}
}

func TestFitNormalization(t *testing.T) {
	ds := tinyDataset(t, 60, 16)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	if m.Norm.SeqStd <= 0 || m.Norm.SeqMean == 0 {
		t.Fatalf("sequence normalization not fitted: %+v", m.Norm)
	}
	for i := 0; i < 3; i++ {
		if m.Norm.FeatStd[i] <= 0 {
			t.Fatalf("feature std %d not fitted", i)
		}
	}
	// Normalized features should be O(1).
	x := make([]float64, 3)
	m.normalizeFeaturesRow(x, lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05})
	for _, v := range x {
		if math.Abs(v) > 5 {
			t.Fatalf("normalized feature %v too large", v)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	ds := tinyDataset(t, 160, 16)
	train, val := ds.Split(0.2)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(train)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	hist, err := m.Train(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TrainLoss) != 10 {
		t.Fatalf("history length = %d", len(hist.TrainLoss))
	}
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if last >= first*0.8 {
		t.Fatalf("training loss did not fall: %v -> %v", first, last)
	}
	// The trained model should beat an untrained one on validation MAPE.
	fresh := NewModel(tinyModelConfig())
	fresh.FitNormalization(train)
	if m.EvalMAPE(val) >= fresh.EvalMAPE(val) {
		t.Fatalf("trained MAPE %v not better than untrained %v", m.EvalMAPE(val), fresh.EvalMAPE(val))
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	m := NewModel(tinyModelConfig())
	if _, err := m.Train(&Dataset{}, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestFineTuneRuns(t *testing.T) {
	ds := tinyDataset(t, 80, 16)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	if _, err := m.Train(ds, nil, cfg); err != nil {
		t.Fatal(err)
	}
	before := m.EvalLoss(ds, cfg)
	ft := FineTuneConfig()
	ft.Epochs = 3
	if _, err := m.FineTune(ds, ft); err != nil {
		t.Fatal(err)
	}
	after := m.EvalLoss(ds, ft)
	if after > before*1.1 {
		t.Fatalf("fine-tuning hurt in-distribution loss: %v -> %v", before, after)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := tinyDataset(t, 40, 16)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	if _, err := m.Train(ds, nil, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Samples[0]
	p1 := m.Predict(s.Seq, s.Config)
	p2 := loaded.Predict(s.Seq, s.Config)
	if math.Abs(p1.CostPerRequest-p2.CostPerRequest) > 1e-12 {
		t.Fatalf("loaded model predicts differently: %v vs %v", p1.CostPerRequest, p2.CostPerRequest)
	}
	for i := range p1.Percentiles {
		if math.Abs(p1.Percentiles[i]-p2.Percentiles[i]) > 1e-12 {
			t.Fatal("loaded percentiles differ")
		}
	}
}

// TestSaveGolden pins Save's bytes: a fresh model at DefaultModelConfig (the
// initial draws and their order) and a tiny model after a fixed two-epoch
// Train (every training step, bit for bit).
func TestSaveGolden(t *testing.T) {
	digest := func(m *Model) string {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	trained := NewModel(tinyModelConfig())
	ds := synthDataset(20, 16, 41)
	trained.FitNormalization(ds)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	if _, err := trained.Train(ds, nil, tc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Model
		want string
	}{
		{"fresh", NewModel(DefaultModelConfig()), "4facad241f48ac5e52b8605509ea88f8477ab1a0f4276a489146f7c643363508"},
		{"trained", trained, "8ab0b4d0202073e549ee0acc7bf375b25572d8b3de4af39af7acf7a653ec7df3"},
	} {
		if got := digest(c.m); got != c.want {
			t.Errorf("%s: Save digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestNewModelDrawsAsNN holds NewModel's parameter block to the values the
// nn constructors draw from the model seed, module by module in block
// order, across architectures.
func TestNewModelDrawsAsNN(t *testing.T) {
	for _, heads := range []int{1, 2, 4} {
		for _, layers := range []int{1, 2, 3} {
			cfg := tinyModelConfig()
			cfg.Heads, cfg.EncoderLayers, cfg.FFHidden, cfg.Seed = heads, layers, 7+heads, int64(heads*10+layers)
			m := NewModel(cfg)
			var want []float64
			for _, p := range newNNModules(cfg, rand.New(rand.NewSource(cfg.Seed))).params() {
				want = append(want, p.Data...)
			}
			if !sameBits(m.params, want) {
				t.Fatalf("heads=%d layers=%d: NewModel's block differs from the nn constructors' draws", heads, layers)
			}
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestAttentionScores(t *testing.T) {
	m := NewModel(tinyModelConfig())
	seq := make([]float64, 16)
	for i := range seq {
		seq[i] = 0.01
	}
	seq[10] = 2.0 // a long gap
	scores := m.AttentionScores(seq)
	if len(scores) != 16 {
		t.Fatalf("scores length = %d", len(scores))
	}
	sum := 0.0
	for _, v := range scores {
		if v < 0 {
			t.Fatalf("negative attention score %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %v", sum)
	}
}

func TestPenaltyGamma(t *testing.T) {
	if g := PenaltyGamma(0.11, 0.1); math.Abs(g-0.1) > 1e-12 {
		t.Fatalf("gamma = %v, want 0.1", g)
	}
	if g := PenaltyGamma(0.09, 0.1); math.Abs(g-0.1) > 1e-9 {
		t.Fatalf("gamma = %v, want 0.1 (absolute)", g)
	}
	if PenaltyGamma(1, 0) != 0 {
		t.Fatal("gamma with zero truth should be 0")
	}
}

func TestEvalMAPEEmptyDataset(t *testing.T) {
	m := NewModel(tinyModelConfig())
	if got := m.EvalMAPE(&Dataset{}); got != 0 {
		t.Fatalf("EvalMAPE(empty) = %v", got)
	}
	if got := m.EvalLoss(&Dataset{}, DefaultTrainConfig()); got != 0 {
		t.Fatalf("EvalLoss(empty) = %v", got)
	}
}

func TestDecodeEnforcesMonotonePercentiles(t *testing.T) {
	m := NewModel(tinyModelConfig())
	// Raw output with a dip at P95 (scaled space).
	raw := []float64{1, 0.1, 0.3, 0.9, 0.5, 1.2}
	p := m.decode(raw, lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0})
	for i := 1; i < len(p.Percentiles); i++ {
		if p.Percentiles[i] < p.Percentiles[i-1] {
			t.Fatalf("percentiles not monotone: %v", p.Percentiles)
		}
	}
	// The dip is lifted to the running max.
	if p.Percentiles[3] != p.Percentiles[2] {
		t.Fatalf("dip not projected: %v", p.Percentiles)
	}
}

func TestScaleTargetRoundTrip(t *testing.T) {
	m := NewModel(tinyModelConfig())
	target := []float64{2e-6, 0.01, 0.02, 0.03, 0.05, 0.08}
	scaled := make([]float64, len(target))
	m.scaleTargetInto(scaled, target)
	// Cost scaled to ~2, latencies to ~0.1-0.8: all O(1).
	for i, v := range scaled {
		if math.Abs(v) > 10 {
			t.Fatalf("scaled target[%d] = %v not O(1)", i, v)
		}
	}
	back := m.decode(scaled, lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0})
	if math.Abs(back.CostPerRequest-target[0]) > 1e-18 {
		t.Fatalf("decode(scale) cost = %v", back.CostPerRequest)
	}
	for i := range back.Percentiles {
		if math.Abs(back.Percentiles[i]-target[i+1]) > 1e-15 {
			t.Fatalf("decode(scale) pct %d = %v", i, back.Percentiles[i])
		}
	}
}
