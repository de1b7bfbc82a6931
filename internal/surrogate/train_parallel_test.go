package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

// synthDataset fabricates a labeled dataset directly (no simulator), so the
// training tests stay fast and self-contained.
func synthDataset(n, seqLen int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	grid := tinyGrid().Configs()
	pcts := []float64{50, 75, 90, 95, 99}
	ds := &Dataset{Percentiles: pcts}
	for i := 0; i < n; i++ {
		seq := make([]float64, seqLen)
		for j := range seq {
			seq[j] = math.Exp(rng.NormFloat64()) * 0.01
		}
		base := 0.01 + 0.05*rng.Float64()
		target := make([]float64, 1+len(pcts))
		target[0] = 1e-6 * (1 + rng.Float64()) // cost
		for j := 1; j < len(target); j++ {
			base += 0.01 * rng.Float64()
			target[j] = base
		}
		ds.Samples = append(ds.Samples, Sample{
			Seq:    seq,
			Config: grid[rng.Intn(len(grid))],
			Target: target,
		})
	}
	return ds
}

// trainFresh trains a fresh model on ds with the given worker count and
// returns the model and its history. Dropout is enabled to prove that the
// per-sample mask seeding is worker-invariant.
func trainFresh(t *testing.T, ds *Dataset, workers, epochs int) (*Model, *History) {
	t.Helper()
	mc := tinyModelConfig()
	mc.Dropout = 0.1
	m := NewModel(mc)
	m.FitNormalization(ds)
	tc := DefaultTrainConfig()
	tc.Epochs = epochs
	tc.Workers = workers
	hist, err := m.Train(ds, nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	return m, hist
}

// TestTrainDeterministicAcrossWorkerCounts is the equivalence contract of
// data-parallel training: for a fixed seed, 1 worker and N workers must
// produce identical per-epoch losses and identical final weights.
func TestTrainDeterministicAcrossWorkerCounts(t *testing.T) {
	ds := synthDataset(24, 16, 5)
	const epochs = 4
	mSerial, hSerial := trainFresh(t, ds, 1, epochs)
	for _, workers := range []int{2, 4} {
		mPar, hPar := trainFresh(t, ds, workers, epochs)
		if len(hPar.TrainLoss) != len(hSerial.TrainLoss) {
			t.Fatalf("history length %d vs %d", len(hPar.TrainLoss), len(hSerial.TrainLoss))
		}
		for e := range hSerial.TrainLoss {
			if !bitEqual(hSerial.TrainLoss[e], hPar.TrainLoss[e]) {
				t.Fatalf("workers=%d epoch %d loss %v vs serial %v (bitwise)",
					workers, e, hPar.TrainLoss[e], hSerial.TrainLoss[e])
			}
		}
		for i, v := range mSerial.params {
			if v != mPar.params[i] {
				t.Fatalf("workers=%d: parameter %d diverged: %v vs %v", workers, i, mPar.params[i], v)
			}
		}
		// Matching weights must give matching predictions.
		for _, s := range ds.Samples[:4] {
			a := mSerial.Predict(s.Seq, s.Config)
			b := mPar.Predict(s.Seq, s.Config)
			if a.CostPerRequest != b.CostPerRequest {
				t.Fatalf("workers=%d: predictions diverged: %v vs %v", workers, a, b)
			}
			for k := range a.Percentiles {
				if a.Percentiles[k] != b.Percentiles[k] {
					t.Fatalf("workers=%d: percentile %d diverged", workers, k)
				}
			}
		}
	}
}

// TestTrainWorkerCountEdgeCases covers workers > batch, workers > dataset,
// and a batch that does not divide evenly across workers.
func TestTrainWorkerCountEdgeCases(t *testing.T) {
	ds := synthDataset(7, 16, 9) // last batch has 7 % 4 = 3 samples
	mc := tinyModelConfig()
	m := NewModel(mc)
	m.FitNormalization(ds)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	tc.BatchSize = 4
	tc.Workers = 16 // clamped to the batch size
	if _, err := m.Train(ds, nil, tc); err != nil {
		t.Fatal(err)
	}
}

// TestEvalMatchesTapeValues pins the compiled evaluators to the tape computed
// sample by sample: EvalLoss to the sample-order mean of the tape loss, bit
// for bit, and Predict to the decoded tape forward.
func TestEvalMatchesTapeValues(t *testing.T) {
	ds := synthDataset(20, 16, 11)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	cfg := DefaultTrainConfig()

	var want float64
	tp := tapeOf(m)
	for _, s := range ds.Samples {
		want += tp.sampleLoss(s, cfg).Item()
	}
	want /= float64(ds.Len())
	if got := m.EvalLoss(ds, cfg); !bitEqual(got, want) {
		t.Fatalf("EvalLoss = %v, want %v (bitwise)", got, want)
	}

	// Predict (compiled) must agree with the tape forward pass.
	for _, s := range ds.Samples[:5] {
		out := tp.forward(s.Seq, s.Config)
		want := m.decode(out.Data, s.Config)
		got := m.Predict(s.Seq, s.Config)
		if got.CostPerRequest != want.CostPerRequest {
			t.Fatalf("no-grad Predict cost %v vs grad-mode %v", got.CostPerRequest, want.CostPerRequest)
		}
		for i := range want.Percentiles {
			if got.Percentiles[i] != want.Percentiles[i] {
				t.Fatalf("Predict percentile %d differs from the tape", i)
			}
		}
	}

	if got := m.UnderpredictionQuantile(ds, 95, 0.9); math.IsNaN(got) || got < 0 {
		t.Fatalf("UnderpredictionQuantile = %v", got)
	}
	if got := m.EvalMAPE(ds); got <= 0 {
		t.Fatalf("EvalMAPE = %v", got)
	}
}
