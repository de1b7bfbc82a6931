package surrogate

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"

	"deepbat/internal/lambda"
	"deepbat/internal/loss"
	"deepbat/internal/obs"
	"deepbat/internal/opt"
	"deepbat/internal/stats"
	"deepbat/internal/tensor"
)

// TrainConfig holds the optimization hyperparameters. The paper trains for
// 100 epochs with batch size 8, Adam at lr 1e-3, and the combined loss with
// alpha = 0.05.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Loss      loss.Config
	// SLO drives the violation-penalty weighting of the loss.
	SLO float64
	// ClipNorm bounds the global gradient norm (0 disables clipping).
	ClipNorm float64
	// Seed shuffles minibatches deterministically.
	Seed int64
	// Workers is the number of goroutines sharding each minibatch
	// (0 = GOMAXPROCS). Training is bit-deterministic for a fixed Seed
	// regardless of the worker count: every sample's gradient lands in its
	// own buffer and buffers are reduced in sample order, and dropout masks
	// are seeded per (epoch, sample position), never per worker.
	Workers int
	// Quiet suppresses the per-epoch Progress callback.
	Progress func(epoch int, trainLoss, valLoss float64)
	// Obs, when non-nil, receives training telemetry: per-epoch loss and
	// validation-loss gauges, a per-batch pre-clip gradient-norm histogram,
	// and worker-count/utilization gauges. Instrumentation only reads
	// training state, so results are bit-identical with Obs nil or set.
	Obs *obs.Registry
}

// DefaultTrainConfig returns the paper's training settings (with fewer
// epochs than the paper's 100 — the loss plateaus by ~50 there and much
// earlier at our dataset sizes).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:    30,
		BatchSize: 8,
		LR:        0.001,
		Loss:      loss.Default(),
		SLO:       0.1,
		ClipNorm:  5,
		Seed:      1,
	}
}

// FineTuneConfig returns the lighter schedule used to adapt a pre-trained
// model to an out-of-distribution workload (Section III-D, Model
// Fine-Tuning): fewer epochs at a reduced learning rate.
func FineTuneConfig() TrainConfig {
	c := DefaultTrainConfig()
	c.Epochs = 8
	c.LR = 0.0005
	return c
}

// History records per-epoch training and validation losses.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
}

// scaleTarget converts a physical target vector into the model's normalized
// output space.
func (m *Model) scaleTarget(target []float64) []float64 {
	out := make([]float64, len(target))
	for i, v := range target {
		out[i] = v / m.Norm.OutScale[i]
	}
	return out
}

// sampleLoss builds the scalar loss tensor for one sample: the combined
// Huber+MAPE loss with violating latency entries up-weighted, and the whole
// sample scaled by the SLO penalty when its configuration violates.
func (m *Model) sampleLoss(s Sample, cfg TrainConfig) *tensor.Tensor {
	pred := m.Forward(s.Seq, s.Config)
	target := tensor.FromData(m.scaleTarget(s.Target), len(s.Target))
	weights := loss.SLOWeights(s.Target, cfg.SLO, cfg.Loss)
	flat := tensor.Reshape(pred, len(s.Target))
	l := loss.Combined(flat, target, cfg.Loss, weights)
	//lint:allow floatcompare SampleWeight returns the literal 1.0 for unpenalized samples; bit equality skips a no-op Scale
	if w := loss.SampleWeight(s.Target, cfg.SLO, cfg.Loss); w != 1 {
		l = tensor.Scale(l, w)
	}
	return l
}

// sampleSeed derives the dropout seed of the sample at shuffled position pos
// of the given epoch (splitmix64-style mixing). The seed depends only on
// (base seed, epoch, position), never on the worker that runs the sample, so
// serial and parallel training draw identical dropout masks.
func sampleSeed(base int64, epoch, pos int) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15*uint64(epoch+1) ^ 0xd1342543de82ef95*uint64(pos+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// trainWorkers resolves the effective worker count for one minibatch.
func trainWorkers(cfgWorkers, batch int) int {
	w := cfgWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > batch {
		w = batch
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Train fits the model on train, reporting validation loss on val (which may
// be nil or empty). Normalization must already be fitted (FitNormalization).
//
// The samples of each minibatch are independent, so they are sharded across
// cfg.Workers goroutines. Each worker drives its own weight-sharing replica
// of the model (tensor.ShareData: one set of weights, per-replica gradient
// storage) and writes every sample's gradient into that sample's own
// opt.GradBuffer. After the workers join, the buffers are reduced into the
// optimizer's parameters in sample order, clipped, and stepped — so the
// update is bit-identical for any worker count.
func (m *Model) Train(train, val *Dataset, cfg TrainConfig) (*History, error) {
	if train == nil || train.Len() == 0 {
		return nil, errors.New("surrogate: empty training set")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := m.Params()
	optim := opt.NewAdam(params, cfg.LR)
	met, err := newTrainMetrics(cfg.Obs)
	if err != nil {
		return nil, err
	}
	hist := &History{}
	order := make([]int, train.Len())
	for i := range order {
		order[i] = i
	}

	workers := trainWorkers(cfg.Workers, cfg.BatchSize)
	reps := make([]*Model, workers)
	repParams := make([][]*tensor.Tensor, workers)
	for w := range reps {
		reps[w] = m.replica()
		reps[w].SetTrain(true)
		repParams[w] = reps[w].Params()
	}
	// One gradient shard and loss slot per batch position, reused across
	// batches.
	bufs := make([]*opt.GradBuffer, cfg.BatchSize)
	for i := range bufs {
		bufs[i] = opt.NewGradBuffer(params)
	}
	losses := make([]float64, cfg.BatchSize)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		var usedSlots, capSlots float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			bs := end - start
			scale := 1 / float64(bs)
			runShard := func(w, lo, hi int) {
				rep := reps[w]
				for p := lo; p < hi; p++ {
					if rep.Cfg.Dropout > 0 {
						rep.setDropoutRNG(rand.New(rand.NewSource(sampleSeed(cfg.Seed, epoch, start+p))))
					}
					buf := bufs[p]
					buf.Zero()
					buf.Bind(repParams[w])
					l := tensor.Scale(rep.sampleLoss(train.Samples[order[start+p]], cfg), scale)
					tensor.Backward(l)
					losses[p] = l.Item()
				}
			}
			bw := workers
			if bw > bs {
				bw = bs
			}
			if met != nil {
				shard := (bs + bw - 1) / bw
				usedSlots += float64(bs)
				capSlots += float64(bw * shard)
			}
			if bw <= 1 {
				runShard(0, 0, bs)
			} else {
				var wg sync.WaitGroup
				chunk := (bs + bw - 1) / bw
				for w := 0; w < bw; w++ {
					lo := w * chunk
					hi := lo + chunk
					if hi > bs {
						hi = bs
					}
					if lo >= hi {
						break
					}
					wg.Add(1)
					go func(w, lo, hi int) {
						defer wg.Done()
						runShard(w, lo, hi)
					}(w, lo, hi)
				}
				wg.Wait()
			}
			// Deterministic reduction: sample order, independent of which
			// worker produced each shard.
			optim.ZeroGrad()
			var batchLoss float64
			for p := 0; p < bs; p++ {
				bufs[p].AddInto(params)
				batchLoss += losses[p]
			}
			if cfg.ClipNorm > 0 {
				met.observeBatch(params, opt.ClipGradNorm(params, cfg.ClipNorm), true)
			} else {
				met.observeBatch(params, 0, false)
			}
			optim.Step()
			epochLoss += batchLoss
			batches++
		}
		epochLoss /= float64(batches)
		valLoss := 0.0
		if val != nil && val.Len() > 0 {
			valLoss = m.EvalLoss(val, cfg)
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		hist.ValLoss = append(hist.ValLoss, valLoss)
		met.observeEpoch(len(order), epochLoss, valLoss, workers, usedSlots, capSlots)
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss, valLoss)
		}
	}
	return hist, nil
}

// FineTune adapts the model to a new workload with the fine-tuning schedule,
// keeping the existing normalization (the paper fine-tunes the pre-trained
// weights on a small portion of the new OOD data).
func (m *Model) FineTune(data *Dataset, cfg TrainConfig) (*History, error) {
	return m.Train(data, nil, cfg)
}

// forwardRows runs the compiled path over every sample of d — one encode per
// sample, then one batched head pass — and returns the (N × OutputDim) scaled
// output matrix. Row i is bit-identical to Forward(d.Samples[i]).
func (m *Model) forwardRows(d *Dataset) []float64 {
	n, maxLen := d.Len(), 0
	for _, s := range d.Samples {
		if len(s.Seq) > maxLen {
			maxLen = len(s.Seq)
		}
	}
	c := m.compiled(nil)
	ws := getWorkspace(n*(c.dim+3) + c.encodeFloats(maxLen) + c.headFloats(n))
	e1, feats := ws.take(n*c.dim), ws.take(n*3)
	for i, s := range d.Samples {
		mark := ws.mark()
		copy(e1[i*c.dim:(i+1)*c.dim], m.encode(c, ws, s.Seq))
		ws.release(mark)
		m.normalizeFeaturesRow(feats[i*3:(i+1)*3], s.Config)
	}
	out := append([]float64(nil), c.headRows(ws, e1, feats, n)...)
	putWorkspace(ws)
	return out
}

// EvalLoss computes the mean combined loss over a dataset without updating
// parameters. The forward pass is the compiled one (one head GEMM for the
// whole dataset); per-sample losses are reduced in sample order, so the
// result is deterministic and bit-identical to the per-sample evaluation.
// The loss itself is the training loss's tensor ops over detached leaves:
// nothing requires grad, so no gradient storage is built and — unlike a
// tensor.NoGrad scope — nothing process-wide is touched.
func (m *Model) EvalLoss(d *Dataset, cfg TrainConfig) float64 {
	if d.Len() == 0 {
		return 0
	}
	out := m.forwardRows(d)
	w := m.Cfg.OutputDim()
	var total float64
	for i, s := range d.Samples {
		pred := tensor.FromData(out[i*w:(i+1)*w], w)
		target := tensor.FromData(m.scaleTarget(s.Target), len(s.Target))
		weights := loss.SLOWeights(s.Target, cfg.SLO, cfg.Loss)
		l := loss.Combined(pred, target, cfg.Loss, weights)
		//lint:allow floatcompare SampleWeight returns the literal 1.0 for unpenalized samples; bit equality skips a no-op Scale
		if wgt := loss.SampleWeight(s.Target, cfg.SLO, cfg.Loss); wgt != 1 {
			l = tensor.Scale(l, wgt)
		}
		total += l.Item()
	}
	return total / float64(d.Len())
}

// predictAll runs compiled batched predictions for every sample, returning
// them in sample order.
func (m *Model) predictAll(d *Dataset) []Prediction {
	preds := make([]Prediction, d.Len())
	if d.Len() == 0 {
		return preds
	}
	cfgs := make([]lambda.Config, d.Len())
	for i, s := range d.Samples {
		cfgs[i] = s.Config
	}
	m.decodeRows(m.forwardRows(d), cfgs, preds)
	return preds
}

// EvalMAPE returns the mean absolute percentage error (percent) of the
// model's physical-unit predictions across every output of every sample.
func (m *Model) EvalMAPE(d *Dataset) float64 {
	all := m.predictAll(d)
	var preds, truths []float64
	for i, s := range d.Samples {
		p := all[i]
		preds = append(preds, p.CostPerRequest)
		truths = append(truths, s.Target[0])
		for j, v := range p.Percentiles {
			preds = append(preds, v)
			truths = append(truths, s.Target[j+1])
		}
	}
	return stats.MAPE(preds, truths)
}

// LatencyMAPE is EvalMAPE restricted to the latency percentile outputs
// (the paper reports latency prediction MAPE in Fig. 13).
func (m *Model) LatencyMAPE(d *Dataset) float64 {
	all := m.predictAll(d)
	var preds, truths []float64
	for i, s := range d.Samples {
		for j, v := range all[i].Percentiles {
			preds = append(preds, v)
			truths = append(truths, s.Target[j+1])
		}
	}
	return stats.MAPE(preds, truths)
}

// UnderpredictionQuantile returns the q-quantile (q in [0,1]) of the
// relative underprediction max(0, (truth - pred)/truth) of the latency
// percentile pct across a dataset. It is the dataset form of the paper's
// penalty factor gamma: tightening the SLO by this amount shields the
// optimizer from the winner's curse of picking configurations whose tail the
// model happens to underpredict. pct must be one of the model's percentile
// levels; unknown levels return 0.
func (m *Model) UnderpredictionQuantile(d *Dataset, pct, q float64) float64 {
	idx := -1
	for i, lv := range m.Cfg.Percentiles {
		if stats.ApproxEqual(lv, pct, stats.PercentileLevelTol) {
			idx = i
			break
		}
	}
	if idx < 0 || d.Len() == 0 {
		return 0
	}
	all := m.predictAll(d)
	under := make([]float64, 0, d.Len())
	for i, s := range d.Samples {
		truth := s.Target[idx+1]
		if truth <= 0 {
			continue
		}
		pred := all[i].Percentiles[idx]
		u := (truth - pred) / truth
		if u < 0 {
			u = 0
		}
		under = append(under, u)
	}
	if len(under) == 0 {
		return 0
	}
	v, err := stats.Percentile(under, q*100)
	if err != nil {
		return 0
	}
	return v
}

// PenaltyGamma returns the paper's robustness penalty factor
// gamma = |P_hat - P| / P between a predicted and a simulated ground-truth
// percentile, used to tighten the SLO during optimization for unseen arrival
// processes.
func PenaltyGamma(predicted, groundTruth float64) float64 {
	if groundTruth == 0 {
		return 0
	}
	g := (predicted - groundTruth) / groundTruth
	if g < 0 {
		g = -g
	}
	return g
}
