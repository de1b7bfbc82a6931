package surrogate

import (
	"testing"

	"deepbat/internal/obs"
)

// TestTrainObsBitIdentical proves the instrumentation contract: a training
// run with TrainConfig.Obs set must produce bit-identical losses and weights
// to an uninstrumented run, while the registry fills with telemetry.
func TestTrainObsBitIdentical(t *testing.T) {
	ds := synthDataset(20, 16, 7)
	const epochs = 3
	train := func(reg *obs.Registry) (*Model, *History) {
		mc := tinyModelConfig()
		mc.Dropout = 0.1
		m := NewModel(mc)
		m.FitNormalization(ds)
		tc := DefaultTrainConfig()
		tc.Epochs = epochs
		tc.Workers = 2
		tc.Obs = reg
		hist, err := m.Train(ds, ds, tc)
		if err != nil {
			t.Fatal(err)
		}
		return m, hist
	}
	mPlain, hPlain := train(nil)
	reg := obs.NewRegistry()
	mObs, hObs := train(reg)

	for e := range hPlain.TrainLoss {
		if hPlain.TrainLoss[e] != hObs.TrainLoss[e] || hPlain.ValLoss[e] != hObs.ValLoss[e] {
			t.Fatalf("epoch %d losses diverged under instrumentation", e)
		}
	}
	for i, v := range mPlain.params {
		if v != mObs.params[i] {
			t.Fatalf("parameter %d diverged under instrumentation", i)
		}
	}

	ec, err := reg.Counter("surrogate_train_epochs_total", "")
	if err != nil {
		t.Fatal(err)
	}
	if ec.Value() != epochs {
		t.Fatalf("epochs counter = %v, want %d", ec.Value(), epochs)
	}
	sc, _ := reg.Counter("surrogate_train_samples_total", "")
	if sc.Value() != float64(epochs*ds.Len()) {
		t.Fatalf("samples counter = %v, want %d", sc.Value(), epochs*ds.Len())
	}
	batchesPerEpoch := (ds.Len() + 7) / 8 // default batch size 8
	bc, _ := reg.Counter("surrogate_train_batches_total", "")
	if bc.Value() != float64(epochs*batchesPerEpoch) {
		t.Fatalf("batches counter = %v, want %d", bc.Value(), epochs*batchesPerEpoch)
	}
	gh, err := reg.Histogram("surrogate_grad_norm", "", gradNormBuckets())
	if err != nil {
		t.Fatal(err)
	}
	if gh.Count() != uint64(epochs*batchesPerEpoch) {
		t.Fatalf("grad-norm observations = %d, want %d", gh.Count(), epochs*batchesPerEpoch)
	}
	if gh.Sum() <= 0 {
		t.Fatal("grad norms were not positive")
	}
	lg, _ := reg.Gauge("surrogate_train_loss", "")
	if lg.Value() != hObs.TrainLoss[epochs-1] {
		t.Fatalf("loss gauge = %v, want %v", lg.Value(), hObs.TrainLoss[epochs-1])
	}
	vg, _ := reg.Gauge("surrogate_val_loss", "")
	if vg.Value() != hObs.ValLoss[epochs-1] {
		t.Fatalf("val-loss gauge = %v, want %v", vg.Value(), hObs.ValLoss[epochs-1])
	}
	wg, _ := reg.Gauge("surrogate_train_workers", "")
	if wg.Value() != 2 {
		t.Fatalf("workers gauge = %v, want 2", wg.Value())
	}
	ug, _ := reg.Gauge("surrogate_worker_utilization", "")
	if ug.Value() <= 0 || ug.Value() > 1 {
		t.Fatalf("utilization gauge = %v, want in (0, 1]", ug.Value())
	}
}

// TestTrainObsGradNormWithoutClipping covers the ClipNorm == 0 path, where
// the norm is computed purely for telemetry.
func TestTrainObsGradNormWithoutClipping(t *testing.T) {
	ds := synthDataset(8, 16, 3)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.ClipNorm = 0
	reg := obs.NewRegistry()
	tc.Obs = reg
	if _, err := m.Train(ds, nil, tc); err != nil {
		t.Fatal(err)
	}
	gh, err := reg.Histogram("surrogate_grad_norm", "", gradNormBuckets())
	if err != nil {
		t.Fatal(err)
	}
	if gh.Count() == 0 || gh.Sum() <= 0 {
		t.Fatalf("grad-norm histogram empty without clipping: count=%d sum=%v", gh.Count(), gh.Sum())
	}
}

// TestTrainObsRegistryCollision: a colliding injected registry must fail the
// Train call with an error, never a panic.
func TestTrainObsRegistryCollision(t *testing.T) {
	ds := synthDataset(8, 16, 3)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	reg := obs.NewRegistry()
	if _, err := reg.Counter("surrogate_train_loss", "wrong kind"); err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.Obs = reg
	if _, err := m.Train(ds, nil, tc); err == nil {
		t.Fatal("Train accepted a registry with a colliding metric name")
	}
}
