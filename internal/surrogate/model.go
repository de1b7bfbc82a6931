// Package surrogate implements the DeepBAT deep surrogate model (Fig. 3 of
// the paper): a Transformer encoder over the arrival interarrival sequence,
// mean pooling followed by an extra multi-head self-attention refinement,
// a feed-forward branch for the candidate configuration features (memory,
// batch size, timeout), and a feed-forward output head that predicts the
// per-request cost together with a vector of latency percentiles.
//
// The package also provides ground-truth dataset generation from the
// discrete-event simulator, the paper's training loop (Adam, combined
// Huber+MAPE loss with SLO-violation penalty), fine-tuning for
// out-of-distribution workloads, and a compiled, tape-free inference path
// (compiled.go): an immutable snapshot of the model with every weight matrix
// pre-packed for the blocked GEMM kernel, run in place on a pooled arena, on
// which a grid sweep encodes the window once, reuses the grid's cached
// feature-branch rows and shares the encoding's half of the output head's
// hidden product across all candidates (see DESIGN.md, "Batched inference &
// kernel blocking").
//
// Training is data-parallel: the samples of each minibatch are sharded
// across workers running weight-sharing model replicas, and the per-sample
// gradients are reduced in a fixed sample order, so training is
// bit-deterministic for a given seed regardless of the worker count.
// Inference entry points (Predict, PredictGrid, EvalLoss, EvalMAPE) never
// touch the autograd engine — no tape, no tensor.NoGrad, no goroutines — and
// are bit-identical to the tape forward the training loop runs.
package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"deepbat/internal/lambda"
	"deepbat/internal/nn"
	"deepbat/internal/stats"
	"deepbat/internal/tensor"
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

	embed   *nn.Linear // 1 -> d (Eq. 1)
	pos     *nn.PositionalEncoding
	enc     *nn.Encoder            // Eq. 2
	postAtt *nn.MultiHeadAttention // Eq. 4, refinement of the pooled vector
	featFF  *nn.FeedForward        // Eq. 5
	outFF   *nn.FeedForward        // Eq. 6

	// snap is the compiled inference snapshot (compiled.go). It re-validates
	// itself against the live parameters on every use, so nothing that
	// changes them has to invalidate it.
	snap atomic.Pointer[compiled]
}

// NewModel builds a model with freshly initialized parameters.
func NewModel(cfg ModelConfig) *Model {
	if cfg.SeqLen <= 0 || cfg.EmbedDim <= 0 || cfg.OutputDim() <= 1 {
		panic(fmt.Sprintf("surrogate: bad model config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EmbedDim
	m := &Model{
		Cfg:     cfg,
		embed:   nn.NewLinear(rng, 1, d),
		pos:     nn.NewPositionalEncoding(maxSeqLen(cfg.SeqLen), d),
		enc:     nn.NewEncoder(rng, cfg.EncoderLayers, d, cfg.FFHidden, cfg.Heads, cfg.Dropout),
		postAtt: nn.NewMultiHeadAttention(rng, d, cfg.Heads),
		featFF:  nn.NewFeedForward(rng, 3, cfg.FFHidden, d),
		outFF:   nn.NewFeedForward(rng, 2*d, cfg.FFHidden, cfg.OutputDim()),
	}
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

// Params returns every learnable tensor.
func (m *Model) Params() []*tensor.Tensor {
	return nn.CollectParams(m.embed, m.enc, m.postAtt, m.featFF, m.outFF)
}

// replica returns a model whose parameter tensors alias m's weights (updates
// through the optimizer are immediately visible) but own private gradient
// buffers and private dropout/attention scratch state. Params() of the
// replica is index-aligned with m.Params(). The positional table is constant
// and shared.
func (m *Model) replica() *Model {
	return &Model{
		Cfg:       m.Cfg,
		Norm:      m.Norm,
		GammaHint: m.GammaHint,
		embed:     m.embed.Replicate(),
		pos:       m.pos,
		enc:       m.enc.Replicate(),
		postAtt:   m.postAtt.Replicate(),
		featFF:    m.featFF.Replicate(),
		outFF:     m.outFF.Replicate(),
	}
}

// setDropoutRNG installs one shared random stream on every dropout layer of
// the model (only the encoder layers carry dropout).
func (m *Model) setDropoutRNG(rng *rand.Rand) { m.enc.SetDropoutRNG(rng) }

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m) }

// SetTrain toggles dropout.
func (m *Model) SetTrain(train bool) { m.enc.SetTrain(train) }

// normalizeSeq log-transforms and standardizes an interarrival window into a
// column tensor of shape (l, 1).
func (m *Model) normalizeSeq(seq []float64) *tensor.Tensor {
	return tensor.FromData(m.normalizeSeqInto(make([]float64, len(seq)), seq), len(seq), 1)
}

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

// normalizeFeatures standardizes (M, B, T) into a (1, 3) tensor.
func (m *Model) normalizeFeatures(cfg lambda.Config) *tensor.Tensor {
	data := make([]float64, 3)
	m.normalizeFeaturesRow(data, cfg)
	return tensor.FromData(data, 1, 3)
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
// attention (E1 of Eq. 4). The returned (1, d) tensor is a detached leaf
// computed by the compiled encoder, bit-identical to the tape forward that
// training runs (Forward).
func (m *Model) EncodeSequence(seq []float64) *tensor.Tensor {
	c := m.compiled(nil)
	ws := getWorkspace(c.encodeFloats(len(seq)))
	e1 := tensor.FromData(append([]float64(nil), m.encode(c, ws, seq)...), 1, c.dim)
	putWorkspace(ws)
	return e1
}

// encodeTape is the sequence branch built from autograd ops: the training
// path and the reference the compiled encoder is tested against.
func (m *Model) encodeTape(seq []float64) *tensor.Tensor {
	e := m.embedTape(seq)    // (l, d), Eq. 1 + positional encoding
	e = m.enc.Forward(e)     // Eq. 2
	ep := tensor.MeanRows(e) // mean pooling -> (1, d)
	if m.Cfg.DisablePostAttention {
		return ep
	}
	return m.postAtt.Forward(ep, ep, ep, nil) // Eq. 4
}

// embedTape standardizes seq and applies the embedding (Eq. 1) and the
// positional encoding on autograd ops: the encoder's input.
func (m *Model) embedTape(seq []float64) *tensor.Tensor {
	if len(seq) == 0 {
		panic("surrogate: empty sequence")
	}
	return m.pos.Forward(m.embed.Forward(m.normalizeSeq(seq)))
}

// encode standardizes seq and runs the compiled sequence branch; the
// returned encoding lives in ws, which must hold c.encodeFloats(len(seq)).
func (m *Model) encode(c *compiled, ws *workspace, seq []float64) []float64 {
	if len(seq) == 0 {
		panic("surrogate: empty sequence")
	}
	x := m.normalizeSeqInto(ws.take(len(seq)), seq)
	return c.encode(ws, x, !m.Cfg.DisablePostAttention)
}

// headForward combines an encoded sequence with a candidate configuration
// and produces the scaled output vector (still on the tape).
func (m *Model) headForward(e1 *tensor.Tensor, cfg lambda.Config) *tensor.Tensor {
	e2 := m.featFF.Forward(m.normalizeFeatures(cfg))  // Eq. 5
	return m.outFF.Forward(tensor.ConcatCols(e1, e2)) // Eq. 6
}

// Forward runs the full model on autograd ops and returns the scaled
// (normalized-space) output tensor; used by the training loop.
func (m *Model) Forward(seq []float64, cfg lambda.Config) *tensor.Tensor {
	return m.headForward(m.encodeTape(seq), cfg)
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
	p := m.decode(c.headRows(ws, e1, feats, 1), cfg)
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
// Only the layer's input (embedding and positional encoding) and its
// attention weights are computed, on the tape ops the training forward runs,
// so the scores are bit-identical to the maps that forward applies. The call
// mutates nothing — the graph nodes it builds are its own and die with it —
// so any number of goroutines may call it on one model, beside inference on
// that model and training on others.
func (m *Model) AttentionScores(seq []float64) []float64 {
	x := m.embedTape(seq)
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
	if total > 0 {
		for i := range agg {
			agg[i] /= total
		}
	}
	return agg
}
