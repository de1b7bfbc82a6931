package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"deepbat/internal/lambda"
)

// bitEqual reports whether two floats have identical bit patterns.
func bitEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// comparePredictions fails the test unless the batched prediction matches the
// per-candidate one bit for bit.
func comparePredictions(t *testing.T, tag string, got, want Prediction) {
	t.Helper()
	if !bitEqual(got.CostPerRequest, want.CostPerRequest) {
		t.Fatalf("%s: cost %v vs %v (bitwise)", tag, got.CostPerRequest, want.CostPerRequest)
	}
	if len(got.Percentiles) != len(want.Percentiles) {
		t.Fatalf("%s: percentile lengths %d vs %d", tag, len(got.Percentiles), len(want.Percentiles))
	}
	for j := range want.Percentiles {
		if !bitEqual(got.Percentiles[j], want.Percentiles[j]) {
			t.Fatalf("%s: percentile %d = %v vs %v (bitwise)", tag, j, got.Percentiles[j], want.Percentiles[j])
		}
	}
}

// randomWindow draws a plausible interarrival window of length n.
func randomWindow(rng *rand.Rand, n int) []float64 {
	seq := make([]float64, n)
	for i := range seq {
		seq[i] = 0.001 + 0.05*rng.Float64()
	}
	return seq
}

// randomGrid draws a small random configuration grid.
func randomGrid(rng *rand.Rand) []lambda.Config {
	n := 1 + rng.Intn(12)
	cfgs := make([]lambda.Config, n)
	for i := range cfgs {
		cfgs[i] = lambda.Config{
			MemoryMB:  float64(512 * (1 + rng.Intn(8))),
			BatchSize: 1 + rng.Intn(16),
			TimeoutS:  0.01 + 0.2*rng.Float64(),
		}
	}
	return cfgs
}

// TestPredictGridBitIdenticalToPredict holds the grid sweep to the
// per-candidate Predict path bit for bit, across model seeds, window lengths,
// and random grids: sharing the encoding's partial product and caching the
// feature rows must not change a single bit of any row.
func TestPredictGridBitIdenticalToPredict(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		for _, winLen := range []int{8, 16, 33} {
			rng := rand.New(rand.NewSource(seed*100 + int64(winLen)))
			cfg := tinyModelConfig()
			cfg.Seed = seed
			m := NewModel(cfg)
			// Non-trivial normalization so the feature branch sees varied rows.
			m.Norm.SeqMean, m.Norm.SeqStd = -3, 1.5
			m.Norm.FeatMean = [3]float64{1500, 4, 0.05}
			m.Norm.FeatStd = [3]float64{700, 3, 0.03}
			seq := randomWindow(rng, winLen)
			cfgs := append(tinyGrid().Configs(), randomGrid(rng)...)
			grid := m.PredictGrid(seq, cfgs)
			if len(grid) != len(cfgs) {
				t.Fatalf("PredictGrid returned %d of %d", len(grid), len(cfgs))
			}
			for i, c := range cfgs {
				comparePredictions(t, c.String(), grid[i], m.Predict(seq, c))
			}
		}
	}
}

// FuzzPredictGridMatchesPredict fuzzes the compiled path against the tape
// forward over model seed, window length, head count, the post-attention
// ablation, zero gaps, and a weight write plus a grid swap between sweeps.
func FuzzPredictGridMatchesPredict(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(1), false, false)
	f.Add(int64(42), uint8(3), uint8(0), true, true)
	f.Add(int64(-7), uint8(64), uint8(2), false, true)
	f.Fuzz(func(t *testing.T, seed int64, winLen, headSel uint8, noPost, zeroGaps bool) {
		n := int(winLen)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		cfg := tinyModelConfig()
		cfg.Seed = seed
		cfg.Heads = 1 << (headSel % 3)
		cfg.DisablePostAttention = noPost
		m := variedModel(cfg)
		seq := randomWindow(rng, n)
		if zeroGaps {
			seq = zeroGapWindow(rng, n)
		}
		checkAgainstTape(t, "first sweep", m, seq, randomGrid(rng))
		params := m.Params()
		p := params[rng.Intn(len(params))]
		p.Data[rng.Intn(len(p.Data))] = rng.NormFloat64()
		checkAgainstTape(t, "after a weight write and a grid swap", m, seq, randomGrid(rng))
	})
}

// TestPredictGridEmpty keeps the zero-candidate edge case panic-free.
func TestPredictGridEmpty(t *testing.T) {
	m := NewModel(tinyModelConfig())
	if got := m.PredictGrid(randomWindow(rand.New(rand.NewSource(1)), 8), nil); len(got) != 0 {
		t.Fatalf("PredictGrid(nil grid) = %d predictions", len(got))
	}
}

// TestEvalBatchedMatchesPerSample pins the batched validation passes to the
// per-sample forward they replaced: forwardRows row i must equal Forward of
// sample i bitwise, and EvalLoss must equal the sample-order mean of
// sampleLoss.
func TestEvalBatchedMatchesPerSample(t *testing.T) {
	ds := tinyDataset(t, 6, 16)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	tc := DefaultTrainConfig()

	out := m.forwardRows(ds)
	w := m.Cfg.OutputDim()
	var rows [][]float64
	for i := 0; i < ds.Len(); i++ {
		rows = append(rows, out[i*w:(i+1)*w])
	}
	var wantLoss float64
	for i, s := range ds.Samples {
		want := m.Forward(s.Seq, s.Config)
		for j := range want.Data {
			if !bitEqual(rows[i][j], want.Data[j]) {
				t.Fatalf("sample %d output %d = %v vs %v (bitwise)", i, j, rows[i][j], want.Data[j])
			}
		}
		wantLoss += m.sampleLoss(s, tc).Item()
	}
	wantLoss /= float64(ds.Len())
	if got := m.EvalLoss(ds, tc); !bitEqual(got, wantLoss) {
		t.Fatalf("EvalLoss = %v, want %v (bitwise)", got, wantLoss)
	}
}

// TestPredictGridAllocBudget guards the compiled path's allocation profile.
// A steady-state sweep over the default 216-candidate grid allocates the two
// slices it returns (predictions and their percentile backing) and nothing
// else — the arena is pooled and the snapshot is reused. A single Predict,
// which runs the compiled headRows, allocates only its percentile slice.
// EvalMAPE over 24 samples (the compiled forwardRows) allocates its four
// result slices plus the append growth of its two flat error vectors, 22 in
// all; one tape forward per sample would cost hundreds per sample.
func TestPredictGridAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc budget is not meaningful")
	}
	m := NewModel(tinyModelConfig())
	seq := randomWindow(rand.New(rand.NewSource(2)), m.Cfg.SeqLen)
	cfgs := lambda.DefaultGrid().Configs()
	ds := tinyDataset(t, 24, m.Cfg.SeqLen)
	cases := []struct {
		name   string
		run    func()
		budget float64
	}{
		{"PredictGrid", func() { m.PredictGrid(seq, cfgs) }, 4},
		{"Predict", func() { m.Predict(seq, cfgs[0]) }, 1},
		{"EvalMAPE", func() { m.EvalMAPE(ds) }, 22},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.run() // compile, cache the grid's feature rows, size the arena
			allocs := testing.AllocsPerRun(5, c.run)
			if allocs > c.budget {
				t.Fatalf("%s allocates %.0f/op, budget %.0f", c.name, allocs, c.budget)
			}
		})
	}
}

// TestAttentionScoresTapeFreeCapture holds AttentionScores to the first
// encoder layer's Scores on the input the tape forward feeds that layer, bit
// for bit, and checks that the call leaves no gradient on the model.
func TestAttentionScoresTapeFreeCapture(t *testing.T) {
	m := variedModel(tinyModelConfig())
	seq := randomWindow(rand.New(rand.NewSource(3)), 16)
	got := m.AttentionScores(seq)

	x := m.pos.Forward(m.embed.Forward(m.normalizeSeq(seq)))
	agg := make([]float64, len(seq))
	for _, h := range m.enc.Layers[0].Att.Scores(x, x, nil) {
		for r := 0; r < h.Rows(); r++ {
			for c := 0; c < h.Cols(); c++ {
				agg[c] += h.At(r, c)
			}
		}
	}
	total := 0.0
	for _, v := range agg {
		total += v
	}
	for i := range agg {
		agg[i] /= total
	}
	for i := range agg {
		if !bitEqual(got[i], agg[i]) {
			t.Fatalf("score %d = %v, want %v (bitwise)", i, got[i], agg[i])
		}
	}
	for i, p := range m.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatalf("AttentionScores left a gradient on parameter %d", i)
			}
		}
	}
}

// TestAttentionScoresConcurrent runs AttentionScores from 8 goroutines on one
// model, each over several windows, and requires every result to match the
// serial one bit for bit (run under -race by `make race`).
func TestAttentionScoresConcurrent(t *testing.T) {
	m := variedModel(tinyModelConfig())
	rng := rand.New(rand.NewSource(4))
	windows := make([][]float64, 6)
	want := make([][]float64, len(windows))
	for i := range windows {
		windows[i] = randomWindow(rng, m.Cfg.SeqLen)
		want[i] = m.AttentionScores(windows[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % len(windows)
				got := m.AttentionScores(windows[i])
				for j := range got {
					if !bitEqual(got[j], want[i][j]) {
						errs <- fmt.Sprintf("goroutine %d window %d score %d = %v, serial %v", g, i, j, got[j], want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
