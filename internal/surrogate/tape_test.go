package surrogate

import (
	"fmt"
	"math/rand"

	"deepbat/internal/lambda"
	"deepbat/internal/nn"
	"deepbat/internal/tensor"
)

// tape is a model rebuilt from autograd ops: the nn modules of the paper's
// architecture, each parameter tensor's Data pointing at its segment of the
// model's parameter block. It is the reference every compiled path is held
// to, bit for bit. Writes through its tensors (an opt.Adam step) are writes
// to the block; its gradients live on the tensors.
type tape struct {
	m       *Model
	embed   *nn.Linear             // 1 -> d (Eq. 1)
	enc     *nn.Encoder            // Eq. 2
	postAtt *nn.MultiHeadAttention // Eq. 4, refinement of the pooled vector
	featFF  *nn.FeedForward        // Eq. 5
	outFF   *nn.FeedForward        // Eq. 6
}

// newNNModules builds the nn modules of cfg from rng, in the order their
// parameters lie in the block.
func newNNModules(cfg ModelConfig, rng *rand.Rand) *tape {
	d := cfg.EmbedDim
	return &tape{
		embed:   nn.NewLinear(rng, 1, d),
		enc:     nn.NewEncoder(rng, cfg.EncoderLayers, d, cfg.FFHidden, cfg.Heads, cfg.Dropout),
		postAtt: nn.NewMultiHeadAttention(rng, d, cfg.Heads),
		featFF:  nn.NewFeedForward(rng, 3, cfg.FFHidden, d),
		outFF:   nn.NewFeedForward(rng, 2*d, cfg.FFHidden, cfg.OutputDim()),
	}
}

// tapeOf builds m's tape over m's parameter block.
func tapeOf(m *Model) *tape {
	tp := newNNModules(m.Cfg, rand.New(rand.NewSource(0)))
	tp.m = m
	off := 0
	for _, p := range tp.params() {
		p.Data = m.params[off : off+len(p.Data)]
		off += len(p.Data)
	}
	if off != len(m.params) {
		panic(fmt.Sprintf("tape: modules hold %d parameters, the block %d", off, len(m.params)))
	}
	return tp
}

// params returns every learnable tensor, in block order.
func (tp *tape) params() []*tensor.Tensor {
	return nn.CollectParams(tp.embed, tp.enc, tp.postAtt, tp.featFF, tp.outFF)
}

// normalizeSeq standardizes an interarrival window into a column tensor of
// shape (l, 1).
func (tp *tape) normalizeSeq(seq []float64) *tensor.Tensor {
	return tensor.FromData(tp.m.normalizeSeqInto(make([]float64, len(seq)), seq), len(seq), 1)
}

// normalizeFeatures standardizes (M, B, T) into a (1, 3) tensor.
func (tp *tape) normalizeFeatures(cfg lambda.Config) *tensor.Tensor {
	data := make([]float64, 3)
	tp.m.normalizeFeaturesRow(data, cfg)
	return tensor.FromData(data, 1, 3)
}

// embedSeq standardizes seq and applies the embedding (Eq. 1) and the
// positional encoding: the encoder's input.
func (tp *tape) embedSeq(seq []float64) *tensor.Tensor {
	if len(seq) == 0 {
		panic("surrogate: empty sequence")
	}
	return tp.m.pos.Forward(tp.embed.Forward(tp.normalizeSeq(seq)))
}

// encode is the sequence branch: embedding, encoder, mean pooling and the
// post-pooling attention.
func (tp *tape) encode(seq []float64) *tensor.Tensor {
	e := tp.enc.Forward(tp.embedSeq(seq)) // Eq. 2
	ep := tensor.MeanRows(e)              // mean pooling -> (1, d)
	if tp.m.Cfg.DisablePostAttention {
		return ep
	}
	return tp.postAtt.Forward(ep, ep, ep, nil) // Eq. 4
}

// head combines an encoded sequence with a candidate configuration and
// produces the scaled output vector.
func (tp *tape) head(e1 *tensor.Tensor, cfg lambda.Config) *tensor.Tensor {
	e2 := tp.featFF.Forward(tp.normalizeFeatures(cfg)) // Eq. 5
	return tp.outFF.Forward(tensor.ConcatCols(e1, e2)) // Eq. 6
}

// forward runs the full model and returns the scaled (normalized-space)
// output tensor.
func (tp *tape) forward(seq []float64, cfg lambda.Config) *tensor.Tensor {
	return tp.head(tp.encode(seq), cfg)
}

// combined is the combined loss on the tape: Alpha·MAPE + (1−Alpha)·Huber
// between pred and the constant target, with per-element weights.
func combined(pred, target *tensor.Tensor, cfg LossConfig, weights []float64) *tensor.Tensor {
	ml := tensor.MAPELoss(pred, target, weights)
	hl := tensor.Huber(pred, target, cfg.Delta, weights)
	return tensor.Add(tensor.Scale(ml, cfg.Alpha), tensor.Scale(hl, 1-cfg.Alpha))
}

// sampleLoss builds the tape's scalar loss for one sample: the combined
// Huber+MAPE loss with violating latency entries up-weighted, and the whole
// sample scaled by the SLO penalty when its configuration violates. It is the
// reference the compiled training step is held to.
func (tp *tape) sampleLoss(s Sample, cfg TrainConfig) *tensor.Tensor {
	pred := tp.forward(s.Seq, s.Config)
	scaled := make([]float64, len(s.Target))
	tp.m.scaleTargetInto(scaled, s.Target)
	target := tensor.FromData(scaled, len(s.Target))
	weights := sloWeightsInto(make([]float64, len(s.Target)), s.Target, cfg.SLO, cfg.Loss)
	l := combined(tensor.Reshape(pred, len(s.Target)), target, cfg.Loss, weights)
	if w := sampleWeight(s.Target, cfg.SLO, cfg.Loss); w != 1 {
		l = tensor.Scale(l, w)
	}
	return l
}
