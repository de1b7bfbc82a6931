package experiments

import (
	"fmt"
	"time"

	"deepbat/internal/surrogate"
	"deepbat/internal/sweep"
)

// trainFor trains a fresh surrogate with the given architecture overrides on
// Azure data and returns it with its validation set.
func (l *Lab) trainFor(mutate func(*surrogate.ModelConfig)) (*surrogate.Model, *surrogate.Dataset, error) {
	return l.trainVariant(mutate, nil)
}

// trained is one (model, validation set) pair produced by a training cell.
type trained struct {
	m   *surrogate.Model
	val *surrogate.Dataset
}

// trainCells trains one surrogate variant per mutation, each an isolated,
// panic-captured sweep cell.
func (l *Lab) trainCells(mutations []func(*surrogate.ModelConfig)) ([]trained, error) {
	out := make([]trained, len(mutations))
	err := l.sweep(len(mutations), func(c *sweep.Cell) error {
		m, val, err := l.trainFor(mutations[c.Index])
		if err != nil {
			return err
		}
		out[c.Index] = trained{m, val}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// seqLenSweep returns the sequence lengths evaluated by Fig15a, scaled from
// the lab's base length (the paper sweeps {128, 256, 512, 1024}).
func (l *Lab) seqLenSweep() []int {
	base := l.Cfg.SeqLen
	return []int{base, base * 2, base * 4, base * 8}
}

// Fig15a reproduces Fig. 15a: the sequence-length trade-off — prediction
// time per sequence rises sharply (attention is O(l^2)) while the error rate
// falls as longer windows expose more workload context.
func Fig15a(l *Lab) (*Report, error) {
	r := &Report{ID: "fig15a", Title: "Sensitivity to sequence length"}
	t := r.AddTable("", "seq_len", "time_per_sequence", "val_mape")
	tw := l.Trace("azure")
	lens := l.seqLenSweep()
	muts := make([]func(*surrogate.ModelConfig), len(lens))
	for i, sl := range lens {
		sl := sl
		muts[i] = func(mc *surrogate.ModelConfig) { mc.SeqLen = sl }
	}
	models, err := l.trainCells(muts)
	if err != nil {
		return nil, err
	}
	// Inference timing stays outside the cells: it is a wall-clock
	// measurement, and concurrent cells would contend for the core.
	for i, sl := range lens {
		m, val := models[i].m, models[i].val
		// Inference time per sequence: encode + full-grid scoring, averaged.
		inter := tw.Interarrivals()
		if len(inter) < sl {
			return nil, fmt.Errorf("experiments: trace shorter than window %d", sl)
		}
		window := inter[:sl]
		cfgs := l.Cfg.Grid.Configs()
		const reps = 10
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			m.PredictGrid(window, cfgs)
		}
		per := time.Since(start) / reps
		t.AddRow(fmt.Sprintf("%d", sl), per.String(), fmtPct(m.EvalMAPE(val)))
	}
	r.AddNote("expected shape: time per sequence grows superlinearly with length; error tends down (paper picks the mid-length balance point)")
	r.AddNote("lengths are scaled from the lab's base window; the paper sweeps {128, 256, 512, 1024}")
	return r, nil
}

// Fig15b reproduces Fig. 15b: the encoder-layer ablation — 2 layers train
// stably with low MAPE and deeper stacks do not help.
func Fig15b(l *Lab) (*Report, error) {
	r := &Report{ID: "fig15b", Title: "Ablation on Transformer encoder layers"}
	t := r.AddTable("", "layers", "val_mape", "final_val_loss")
	layerCounts := []int{1, 2, 4, 6}
	muts := make([]func(*surrogate.ModelConfig), len(layerCounts))
	for i, layers := range layerCounts {
		layers := layers
		muts[i] = func(mc *surrogate.ModelConfig) { mc.EncoderLayers = layers }
	}
	models, err := l.trainCells(muts)
	if err != nil {
		return nil, err
	}
	for i, layers := range layerCounts {
		m, val := models[i].m, models[i].val
		tc := surrogate.DefaultTrainConfig()
		tc.SLO = l.Cfg.SLO
		t.AddRow(fmt.Sprintf("%d", layers), fmtPct(m.EvalMAPE(val)), fmtF(m.EvalLoss(val, tc)))
	}
	r.AddNote("expected shape: 2 layers reach low MAPE; 4 and 6 layers do not improve on it (the paper fixes N=2)")
	return r, nil
}
