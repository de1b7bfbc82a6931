package optimizer

import (
	"testing"

	"deepbat/internal/lambda"
	"deepbat/internal/qsim"
	"deepbat/internal/surrogate"
	"deepbat/internal/trace"
)

// buildDataset labels n (window, configuration) samples from a twitter trace.
func buildDataset(t *testing.T, grid lambda.Grid, n int) *surrogate.Dataset {
	t.Helper()
	spec := trace.Spec{Name: "twitter", Hours: 2, HourSeconds: 60, Seed: 5}
	tr := trace.MustGenerate(spec)
	sim := qsim.New(lambda.DefaultProfile(), lambda.DefaultPricing())
	opts := surrogate.DefaultBuildOptions(grid)
	opts.NumSamples = n
	opts.SeqLen = 16
	ds, err := surrogate.Build(tr, sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func trainedModel(t *testing.T, grid lambda.Grid) *surrogate.Model {
	t.Helper()
	ds := buildDataset(t, grid, 150)
	mc := surrogate.DefaultModelConfig()
	mc.SeqLen = 16
	mc.Dropout = 0
	m := surrogate.NewModel(mc)
	m.FitNormalization(ds)
	tc := surrogate.DefaultTrainConfig()
	tc.Epochs = 8
	if _, err := m.Train(ds, nil, tc); err != nil {
		t.Fatal(err)
	}
	return m
}

func testGrid() lambda.Grid {
	return lambda.Grid{
		Memories:  []float64{1024, 2048},
		Batches:   []int{1, 4, 8},
		TimeoutsS: []float64{0.02, 0.08},
	}
}

func window() []float64 {
	w := make([]float64, 16)
	for i := range w {
		w[i] = 0.01
	}
	return w
}

func TestDecideReturnsValidConfig(t *testing.T) {
	grid := testGrid()
	m := trainedModel(t, grid)
	o := New(m, grid, 0.1)
	d, err := o.Decide(window())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Config.Valid() {
		t.Fatalf("invalid config %v", d.Config)
	}
	if d.Evaluated != grid.Size() {
		t.Fatalf("evaluated %d of %d", d.Evaluated, grid.Size())
	}
	if d.EffectiveSLO != 0.1 {
		t.Fatalf("effective SLO = %v", d.EffectiveSLO)
	}
	if d.Feasible {
		tail, _ := d.Prediction.Percentile(m.Cfg, 95)
		if tail > 0.1 {
			t.Fatalf("feasible decision predicts tail %v > SLO", tail)
		}
	}
}

func TestDecideCheapestFeasible(t *testing.T) {
	grid := testGrid()
	m := trainedModel(t, grid)
	o := New(m, grid, 0.15)
	d, err := o.Decide(window())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Skip("model predicts no feasible config for this window; covered elsewhere")
	}
	preds := m.PredictGrid(window(), grid.Configs())
	for _, p := range preds {
		tail, _ := p.Percentile(m.Cfg, 95)
		if tail <= d.EffectiveSLO && p.CostPerRequest < d.Prediction.CostPerRequest-1e-18 {
			t.Fatalf("config %v feasible and cheaper", p.Config)
		}
	}
}

func TestGammaTightensSLO(t *testing.T) {
	grid := testGrid()
	m := trainedModel(t, grid)
	o := New(m, grid, 0.1)
	o.Gamma = 0.5
	d, err := o.Decide(window())
	if err != nil {
		t.Fatal(err)
	}
	if d.EffectiveSLO != 0.05 {
		t.Fatalf("effective SLO = %v, want 0.05", d.EffectiveSLO)
	}
	// Gamma is clamped to keep the constraint meaningful.
	o.Gamma = 5
	d, err = o.Decide(window())
	if err != nil {
		t.Fatal(err)
	}
	if d.EffectiveSLO < 0.1*0.09 {
		t.Fatalf("gamma clamp failed: %v", d.EffectiveSLO)
	}
}

func TestImpossibleSLOFallsBack(t *testing.T) {
	grid := testGrid()
	m := trainedModel(t, grid)
	o := New(m, grid, 1e-9)
	d, err := o.Decide(window())
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Fatal("impossible SLO marked feasible")
	}
	if !d.Config.Valid() {
		t.Fatal("fallback config invalid")
	}
}

func TestDecideErrors(t *testing.T) {
	grid := testGrid()
	m := trainedModel(t, grid)
	o := New(m, grid, 0.1)
	if _, err := o.Decide(nil); err == nil {
		t.Fatal("expected error for empty window")
	}
	o.Grid = lambda.Grid{}
	if _, err := o.Decide(window()); err == nil {
		t.Fatal("expected error for empty grid")
	}
	o.Grid = grid
	o.Pct = 42
	if _, err := o.Decide(window()); err == nil {
		t.Fatal("expected error for unpredicted percentile")
	}
}
