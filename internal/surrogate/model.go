// Package surrogate implements the DeepBAT deep surrogate model (Fig. 3 of
// the paper): a Transformer encoder over the arrival interarrival sequence,
// mean pooling followed by an extra multi-head self-attention refinement,
// a feed-forward branch for the candidate configuration features (memory,
// batch size, timeout), and a feed-forward output head that predicts the
// per-request cost together with a vector of latency percentiles.
//
// The package also provides ground-truth dataset generation from the
// discrete-event simulator, the paper's training loop (Adam, combined
// Huber+MAPE loss with SLO-violation penalty), and fine-tuning for
// out-of-distribution workloads.
//
// The parameters live in one flat block (Model.params, laid out by layout):
// the weights, every gradient, Adam's moments and Save share its order. One
// compiled network (trainstep.go) runs all of it: every weight matrix
// packed for the blocked GEMM kernel, in a workspace arena, bit-identical to
// the autograd tape (nn modules over the same block, which stay in the tests
// as the reference). Train holds a training network it repacks before every
// optimizer step and runs forward, loss and every parameter gradient on it;
// the samples of each minibatch are sharded across sweep cells and their
// per-sample gradients are summed in a fixed sample order, so training is
// bit-deterministic for a given seed regardless of the worker count. The
// inference snapshot (compiled.go) holds a forward-only network, packed once
// per weight change, and runs it in evaluation mode: a grid sweep encodes
// the window once, reuses the grid's cached feature-branch rows and shares
// the encoding's half of the output head's hidden product across all
// candidates (see DESIGN.md, "Batched inference & kernel blocking"). No
// entry point (Train, Predict, PredictGrid, EvalLoss, EvalMAPE,
// AttentionScores) builds an autograd graph or touches tensor.NoGrad.
package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"deepbat/internal/lambda"
	"deepbat/internal/nn"
	"deepbat/internal/stats"
)

// ModelConfig holds the architecture hyperparameters. The paper's settings
// are 2 encoder layers, embedding dimension 16, feed-forward width 32, ReLU,
// and sequence length 256.
type ModelConfig struct {
	SeqLen        int
	EmbedDim      int
	FFHidden      int
	EncoderLayers int
	Heads         int
	Dropout       float64
	// Percentiles are the latency percentiles predicted alongside the cost.
	Percentiles []float64
	Seed        int64
	// DisablePostAttention ablates the Eq. 4 refinement: the pooled sequence
	// vector is used directly instead of passing through the extra
	// multi-head attention block. For the paper's architecture leave false.
	DisablePostAttention bool
}

// DefaultModelConfig returns the paper's architecture. SeqLen defaults to 64
// (the paper's own sensitivity analysis, Fig. 15a, shows the accuracy/time
// trade-off across {128, 256, 512, 1024}; a shorter default keeps CPU
// training fast and can be raised freely).
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		SeqLen:        64,
		EmbedDim:      16,
		FFHidden:      32,
		EncoderLayers: 2,
		Heads:         2,
		Dropout:       0.05,
		Percentiles:   []float64{50, 75, 90, 95, 99},
		Seed:          1,
	}
}

// OutputDim returns the width of the prediction vector: cost plus the
// percentile list.
func (c ModelConfig) OutputDim() int { return 1 + len(c.Percentiles) }

// Normalization holds the input/output standardization constants fitted on
// the training set ("Standardize" in Eq. 5 of the paper).
type Normalization struct {
	// Interarrival times are log-transformed then standardized.
	SeqMean, SeqStd float64
	// Feature standardization for (M, B, T).
	FeatMean, FeatStd [3]float64
	// Output scaling: targets are divided by these before the loss so every
	// output is O(1). Cost (USD ~1e-6) needs a large scale-up.
	OutScale []float64
}

// Model is the DeepBAT deep surrogate.
type Model struct {
	Cfg  ModelConfig
	Norm Normalization
	// GammaHint is the robustness penalty factor calibrated alongside the
	// weights (the validation-set underprediction quantile); consumers
	// should install it on their optimizer. It travels with Save/Load.
	GammaHint float64

	pos    *nn.PositionalEncoding
	lay    layout
	params []float64 // the parameter block, laid out by lay

	// snap is the inference snapshot (compiled.go). The block's only
	// writers — NewModel, Train and Load — drop it after every write.
	snap atomic.Pointer[compiled]
}

// linear locates one Linear layer y = x·W + b in the parameter block: W
// (in×out, row-major) at w, the bias (out) at b.
type linear struct{ w, b, in, out int }

// layerNorm locates one LayerNorm's gain and bias (dim each).
type layerNorm struct{ gain, bias, dim int }

// attention locates one multi-head attention block's projections.
type attention struct{ q, k, v, o linear }

// encoderLayer locates one Transformer encoder layer.
type encoderLayer struct {
	att          attention
	ff1, ff2     linear
	norm1, norm2 layerNorm
}

// layout is where every parameter lives in the block. The order is the
// embedding (Eq. 1), the encoder layers (Eq. 2: attention Q, K, V, O, the
// feed-forward pair, LayerNorm 1 and 2), the post-pooling attention (Eq. 4),
// the feature branch (Eq. 5) and the output head (Eq. 6); within a Linear,
// W then b, and within a LayerNorm, gain then bias. The weights, every
// gradient, Adam's moments and Save all use this one order.
type layout struct {
	embed        linear
	layers       []encoderLayer
	post         attention
	feat1, feat2 linear
	out1, out2   linear
	segs         []int // length of each W, b, gain and bias in order: Save's tensors
}

// newParams lays out the parameters of cfg and draws their initial values
// in block order from cfg.Seed: every W Xavier-normal, every bias 0, every
// LayerNorm gain 1.
func newParams(cfg ModelConfig) (layout, []float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var lay layout
	var block []float64
	seg := func(n int, v float64) int {
		off := len(block)
		for i := 0; i < n; i++ {
			block = append(block, v)
		}
		lay.segs = append(lay.segs, n)
		return off
	}
	lin := func(in, out int) linear {
		l := linear{w: seg(in*out, 0), in: in, out: out}
		scale := math.Sqrt(2.0 / float64(in+out))
		w := block[l.w:]
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		l.b = seg(out, 0)
		return l
	}
	d, ff := cfg.EmbedDim, cfg.FFHidden
	att := func() attention {
		if cfg.Heads <= 0 || d%cfg.Heads != 0 {
			panic(fmt.Sprintf("surrogate: dim %d not divisible by heads %d", d, cfg.Heads))
		}
		return attention{q: lin(d, d), k: lin(d, d), v: lin(d, d), o: lin(d, d)}
	}
	norm := func() layerNorm { return layerNorm{gain: seg(d, 1), bias: seg(d, 0), dim: d} }
	lay.embed = lin(1, d)
	for i := 0; i < cfg.EncoderLayers; i++ {
		e := encoderLayer{att: att()}
		e.ff1, e.ff2 = lin(d, ff), lin(ff, d)
		e.norm1, e.norm2 = norm(), norm()
		lay.layers = append(lay.layers, e)
	}
	lay.post = att()
	lay.feat1, lay.feat2 = lin(3, ff), lin(ff, d)
	lay.out1, lay.out2 = lin(2*d, ff), lin(ff, cfg.OutputDim())
	return lay, block
}

// NewModel builds a model with freshly initialized parameters.
func NewModel(cfg ModelConfig) *Model {
	if cfg.SeqLen <= 0 || cfg.EmbedDim <= 0 || cfg.OutputDim() <= 1 || !(cfg.Dropout >= 0 && cfg.Dropout < 1) {
		panic(fmt.Sprintf("surrogate: bad model config %+v", cfg))
	}
	m := &Model{Cfg: cfg, pos: nn.NewPositionalEncoding(maxSeqLen(cfg.SeqLen), cfg.EmbedDim)}
	m.lay, m.params = newParams(cfg)
	m.Norm = Normalization{
		SeqStd:   1,
		FeatStd:  [3]float64{1, 1, 1},
		OutScale: defaultOutScale(cfg.OutputDim()),
	}
	return m
}

func maxSeqLen(l int) int {
	if l < 1024 {
		return 1024
	}
	return l
}

func defaultOutScale(dim int) []float64 {
	s := make([]float64, dim)
	s[0] = 1e-6 // cost in USD is predicted in micro-USD units
	for i := 1; i < dim; i++ {
		s[i] = 0.1 // latencies predicted in 100 ms units
	}
	return s
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return len(m.params) }

// normalizeSeqInto writes the standardized window into dst (same length as
// seq) and returns it.
func (m *Model) normalizeSeqInto(dst, seq []float64) []float64 {
	for i, x := range seq {
		dst[i] = (logT(x) - m.Norm.SeqMean) / nonzero(m.Norm.SeqStd)
	}
	return dst
}

// logT is the log transform applied to interarrival times, guarded against
// zero gaps (simultaneous arrivals).
func logT(x float64) float64 {
	const eps = 1e-7
	if x < eps {
		x = eps
	}
	return math.Log(x)
}

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// normalizeFeaturesRow writes the standardized (M, B, T) row of cfg into dst
// (length 3), the row layout consumed by the batched feature branch.
func (m *Model) normalizeFeaturesRow(dst []float64, cfg lambda.Config) {
	raw := [3]float64{cfg.MemoryMB, float64(cfg.BatchSize), cfg.TimeoutS}
	for i, x := range raw {
		dst[i] = (x - m.Norm.FeatMean[i]) / nonzero(m.Norm.FeatStd[i])
	}
}

// EncodeSequence runs the sequence branch: embedding, positional encoding,
// Transformer encoder, mean pooling, and the post-pooling multi-head
// attention (E1 of Eq. 4). It returns the d-vector the compiled network
// computes, bit-identical to the tape forward.
func (m *Model) EncodeSequence(seq []float64) []float64 {
	c := m.compiled(nil)
	ws := getWorkspace(c.encodeFloats(len(seq)))
	e1 := append([]float64(nil), m.encode(c, ws, seq)...)
	putWorkspace(ws)
	return e1
}

// encode standardizes seq and runs the sequence branch in evaluation mode;
// the returned encoding lives in ws, which must hold c.encodeFloats(len(seq)).
func (m *Model) encode(c *compiled, ws *workspace, seq []float64) []float64 {
	if len(seq) == 0 {
		panic("surrogate: empty sequence")
	}
	var acts [1]layerActs
	var post attnActs
	_, e1 := c.encode(ws, nil, acts[:], &post, m.normalizeSeqInto(ws.take(len(seq)), seq), !m.Cfg.DisablePostAttention)
	return e1
}

// Prediction is a de-normalized model output.
type Prediction struct {
	Config         lambda.Config
	CostPerRequest float64
	// Percentiles holds the predicted latency percentiles in the order of
	// ModelConfig.Percentiles.
	Percentiles []float64
}

// Percentile returns the prediction for the given percentile level, which
// must be one of the model's configured levels.
func (p Prediction) Percentile(cfg ModelConfig, pct float64) (float64, bool) {
	for i, q := range cfg.Percentiles {
		if stats.ApproxEqual(q, pct, stats.PercentileLevelTol) {
			return p.Percentiles[i], true
		}
	}
	return 0, false
}

// decode maps a scaled output vector back to physical units. Predicted
// percentiles are projected onto the monotone cone (cumulative max): the
// levels are ascending, so a non-monotone raw output is necessarily an
// estimation artifact that would mislead the SLO constraint check.
func (m *Model) decode(out []float64, cfg lambda.Config) Prediction {
	return m.decodeInto(out, cfg, make([]float64, len(m.Cfg.Percentiles)))
}

// decodeInto is decode writing the percentile vector into a caller-supplied
// slice, so a batched decode can back every prediction of a sweep with one
// shared allocation.
func (m *Model) decodeInto(out []float64, cfg lambda.Config, percs []float64) Prediction {
	p := Prediction{Config: cfg, Percentiles: percs}
	p.CostPerRequest = out[0] * m.Norm.OutScale[0]
	prev := math.Inf(-1)
	for i := range p.Percentiles {
		v := out[i+1] * m.Norm.OutScale[i+1]
		if v < prev {
			v = prev
		}
		p.Percentiles[i] = v
		prev = v
	}
	return p
}

// decodeRows decodes row i of the (n × OutputDim) scaled output matrix into
// dst[i], with all percentile slices carved from one backing allocation.
func (m *Model) decodeRows(out []float64, cfgs []lambda.Config, dst []Prediction) {
	w := m.Cfg.OutputDim()
	np := len(m.Cfg.Percentiles)
	backing := make([]float64, len(cfgs)*np)
	for i, cfg := range cfgs {
		dst[i] = m.decodeInto(out[i*w:(i+1)*w], cfg, backing[i*np:(i+1)*np:(i+1)*np])
	}
}

// Predict runs one sequence/configuration pair on the compiled path and
// returns physical-unit predictions.
func (m *Model) Predict(seq []float64, cfg lambda.Config) Prediction {
	c := m.compiled(nil)
	ws := getWorkspace(c.encodeFloats(len(seq)) + 3 + c.headFloats(1))
	e1 := m.encode(c, ws, seq)
	feats := ws.take(3)
	m.normalizeFeaturesRow(feats, cfg)
	_, _, _, out := c.head(ws, e1, feats, 1)
	p := m.decode(out, cfg)
	putWorkspace(ws)
	return p
}

// PredictGrid encodes the sequence once and evaluates every candidate
// configuration against the shared encoding — the fast path that lets
// DeepBAT sweep the whole grid in well under a millisecond (Section
// III-D/IV-F). The feature-branch rows of cfgs are cached on the compiled
// snapshot (they do not depend on the window), and the encoding's half of
// the head's hidden product is computed once for all K candidates; only the
// two returned slices are allocated. Each output row is bit-identical to the
// per-candidate Predict path and to the tape forward.
func (m *Model) PredictGrid(seq []float64, cfgs []lambda.Config) []Prediction {
	out := make([]Prediction, len(cfgs))
	if len(cfgs) == 0 {
		return out
	}
	c := m.compiled(cfgs)
	ws := getWorkspace(c.encodeFloats(len(seq)) + c.headFloats(len(cfgs)))
	m.decodeRows(c.headGrid(ws, m.encode(c, ws, seq)), cfgs, out)
	putWorkspace(ws)
	return out
}

// AttentionScores returns, per sequence position, the aggregate attention
// received in the first encoder layer (averaged over heads and query
// positions, normalized to sum to 1). This is the quantity visualized in
// Fig. 14 of the paper.
//
// Only the layer's input and its attention are computed, on the compiled
// kernels every forward runs, so the scores are bit-identical to the maps
// the tape forward applies. The call builds no graph and writes no
// parameter, so any number of goroutines may call it on one model, beside
// inference on that model and training on others.
func (m *Model) AttentionScores(seq []float64) []float64 {
	if len(seq) == 0 {
		panic("surrogate: empty sequence")
	}
	c := m.compiled(nil)
	l, att := len(seq), &c.layers[0].att
	ws := getWorkspace(l + 2*l*c.dim + att.floats(l, false))
	x := c.input(ws, m.normalizeSeqInto(ws.take(l), seq))
	var acts attnActs
	att.forward(ws, &acts, ws.take(l*c.dim), x, l)
	agg := make([]float64, l)
	for i, v := range acts.s { // heads × l×l maps, row-major
		agg[i%l] += v
	}
	putWorkspace(ws)
	total := 0.0
	for _, v := range agg {
		total += v
	}
	if total > 0 {
		for i := range agg {
			agg[i] /= total
		}
	}
	return agg
}
