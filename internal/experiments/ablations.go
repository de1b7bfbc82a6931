package experiments

import (
	"fmt"
	"time"

	"deepbat/internal/loss"
	"deepbat/internal/surrogate"
	"deepbat/internal/sweep"
)

// Ablations evaluates the design choices DESIGN.md calls out beyond the
// paper's own sensitivity analysis:
//
//   - the post-pooling multi-head attention block (Eq. 4) vs the plain
//     pooled vector;
//   - the combined Huber+MAPE loss vs pure Huber and pure MAPE;
//   - the SLO-violation penalty weighting vs uniform weights;
//   - the encode-once grid inference vs naively re-running the full model
//     for every candidate configuration.
func Ablations(l *Lab) (*Report, error) {
	r := &Report{ID: "ablations", Title: "Design-choice ablations (validation MAPE on Azure)"}

	type variant struct {
		name   string
		mutate func(*surrogate.ModelConfig)
		train  func(*surrogate.TrainConfig)
	}
	variants := []variant{
		{name: "full model (paper)"},
		{
			name:   "no post-pooling attention",
			mutate: func(mc *surrogate.ModelConfig) { mc.DisablePostAttention = true },
		},
		{
			name:  "pure Huber loss (alpha=0)",
			train: func(tc *surrogate.TrainConfig) { tc.Loss.Alpha = 0 },
		},
		{
			name:  "pure MAPE loss (alpha=1)",
			train: func(tc *surrogate.TrainConfig) { tc.Loss.Alpha = 1 },
		},
		{
			name:  "no SLO penalty weighting",
			train: func(tc *surrogate.TrainConfig) { tc.Loss.SLOPenalty = 1 },
		},
	}

	// One sweep cell per variant; rows assemble from the cells in variant
	// order.
	models := make([]trained, len(variants))
	if err := l.sweep(len(variants), func(c *sweep.Cell) error {
		v := variants[c.Index]
		m, val, err := l.trainVariant(v.mutate, v.train)
		if err != nil {
			return err
		}
		models[c.Index] = trained{m, val}
		return nil
	}); err != nil {
		return nil, err
	}
	t := r.AddTable("", "variant", "val_mape", "latency_mape", "params")
	for i, v := range variants {
		m, val := models[i].m, models[i].val
		t.AddRow(v.name, fmtPct(m.EvalMAPE(val)), fmtPct(m.LatencyMAPE(val)),
			fmt.Sprintf("%d", m.NumParams()))
	}
	fullModel := models[0].m

	// Encode-once vs naive grid inference.
	inter := l.Trace("azure").Interarrivals()
	window := inter[:fullModel.Cfg.SeqLen]
	cfgs := l.Cfg.Grid.Configs()
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		fullModel.PredictGrid(window, cfgs)
	}
	fast := time.Since(start) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, cfg := range cfgs {
			fullModel.Predict(window, cfg)
		}
	}
	naive := time.Since(start) / reps
	inf := r.AddTable("grid inference over the candidate space",
		"strategy", "time_per_decision")
	inf.AddRow("encode-once (PredictGrid)", fast.String())
	inf.AddRow("naive full forward per config", naive.String())
	r.AddNote("encode-once speedup over naive grid inference: %.1fx", float64(naive)/float64(fast))
	r.AddNote("expected shape: the full model matches or beats each ablated variant; encode-once dominates naive inference because the sequence branch is the expensive part")
	return r, nil
}

// trainVariant trains a surrogate with architecture and training-config
// mutations applied, returning the model and its validation split.
func (l *Lab) trainVariant(mutateModel func(*surrogate.ModelConfig), mutateTrain func(*surrogate.TrainConfig)) (*surrogate.Model, *surrogate.Dataset, error) {
	mc := surrogate.DefaultModelConfig()
	mc.SeqLen = l.Cfg.SeqLen
	mc.Dropout = 0
	if mutateModel != nil {
		mutateModel(&mc)
	}
	tr := l.Trace("azure").FirstHours(l.Cfg.Hours / 2)
	sim := l.Simulator()
	bo := surrogate.DefaultBuildOptions(l.Cfg.Grid)
	bo.NumSamples = l.Cfg.TrainSamples
	bo.SeqLen = mc.SeqLen
	bo.Percentiles = mc.Percentiles
	bo.Seed = l.Cfg.Seed
	ds, err := surrogate.Build(tr, sim, bo)
	if err != nil {
		return nil, nil, err
	}
	train, val := ds.Split(0.15)
	m := surrogate.NewModel(mc)
	m.FitNormalization(train)
	tc := surrogate.DefaultTrainConfig()
	tc.Epochs = l.Cfg.TrainEpochs
	tc.SLO = l.Cfg.SLO
	tc.Loss = loss.Default()
	if mutateTrain != nil {
		mutateTrain(&tc)
	}
	if _, err := m.Train(train, val, tc); err != nil {
		return nil, nil, err
	}
	return m, val, nil
}
