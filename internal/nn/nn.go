// Package nn builds neural-network layers on top of the tensor autograd
// engine: linear layers, dropout, sinusoidal positional encoding, multi-head
// scaled-dot-product attention, and the Transformer encoder used by the
// DeepBAT deep surrogate model (Vaswani et al., as referenced by the paper).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"deepbat/internal/tensor"
)

// Module is any component with learnable parameters.
type Module interface {
	// Params returns the learnable parameter tensors of the module.
	Params() []*tensor.Tensor
}

// CollectParams flattens the parameters of several modules.
func CollectParams(ms ...Module) []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, m := range ms {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count of a module.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumEl()
	}
	return n
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

// Linear is a fully connected layer: y = x W + b.
type Linear struct {
	W *tensor.Tensor // in × out
	B *tensor.Tensor // out
}

// NewLinear returns a Linear layer with Xavier/Glorot-initialized weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	scale := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: tensor.Randn(rng, scale, in, out).RequireGrad(),
		B: tensor.New(out).RequireGrad(),
	}
}

// Forward applies the layer to x (n × in) producing (n × out).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.AddRow(tensor.MatMul(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// ---------------------------------------------------------------------------
// FeedForward: Linear -> ReLU -> Linear (the paper's FF blocks)
// ---------------------------------------------------------------------------

// FeedForward is a two-layer perceptron with a ReLU hidden activation, the
// "FeedForward" block of the paper's architecture (hidden width 32, ReLU).
type FeedForward struct {
	In, Hidden, Out int
	L1, L2          *Linear
}

// NewFeedForward constructs a FeedForward block.
func NewFeedForward(rng *rand.Rand, in, hidden, out int) *FeedForward {
	return &FeedForward{
		In: in, Hidden: hidden, Out: out,
		L1: NewLinear(rng, in, hidden),
		L2: NewLinear(rng, hidden, out),
	}
}

// Forward applies the block row-wise.
func (f *FeedForward) Forward(x *tensor.Tensor) *tensor.Tensor {
	return f.L2.Forward(tensor.ReLU(f.L1.Forward(x)))
}

// Params implements Module.
func (f *FeedForward) Params() []*tensor.Tensor {
	return CollectParams(f.L1, f.L2)
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

// LayerNorm holds the learnable gain and bias of layer normalization.
type LayerNorm struct {
	Gain, Bias *tensor.Tensor
	Eps        float64
}

// NewLayerNorm returns a LayerNorm over vectors of the given dimension.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{
		Gain: tensor.Full(1, dim).RequireGrad(),
		Bias: tensor.New(dim).RequireGrad(),
		Eps:  1e-5,
	}
}

// Forward normalizes each row of x.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.LayerNorm(x, l.Gain, l.Bias, l.Eps)
}

// Params implements Module.
func (l *LayerNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Gain, l.Bias} }

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

// Dropout zeroes a fraction P of activations during training and rescales the
// survivors by 1/(1-P) (inverted dropout). In evaluation mode it is the
// identity.
type Dropout struct {
	P     float64
	Train bool
	rng   *rand.Rand
}

// NewDropout returns a Dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	return &Dropout{P: p, rng: rng}
}

// Forward applies dropout to x.
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !d.Train || d.P <= 0 {
		return x
	}
	keep := 1 - d.P
	mask := tensor.New(x.Shape...)
	for i := range mask.Data {
		if d.rng.Float64() < keep {
			mask.Data[i] = 1 / keep
		}
	}
	return tensor.Mul(x, mask)
}

// Params implements Module (dropout has none).
func (d *Dropout) Params() []*tensor.Tensor { return nil }

// SetRNG installs the random stream used for mask draws, so a forward pass
// can draw the masks of a chosen stream (the surrogate's tests replay its
// training step's per-sample dropout on the tape this way).
func (d *Dropout) SetRNG(rng *rand.Rand) { d.rng = rng }

// ---------------------------------------------------------------------------
// Positional encoding
// ---------------------------------------------------------------------------

// PositionalEncoding precomputes the sinusoidal position table of the
// Transformer paper for sequences up to MaxLen.
type PositionalEncoding struct {
	MaxLen, Dim int
	table       *tensor.Tensor // MaxLen × Dim, constant
}

// NewPositionalEncoding builds the encoding table.
func NewPositionalEncoding(maxLen, dim int) *PositionalEncoding {
	table := tensor.New(maxLen, dim)
	for pos := 0; pos < maxLen; pos++ {
		for i := 0; i < dim; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(dim))
			if i%2 == 0 {
				table.Set(pos, i, math.Sin(angle))
			} else {
				table.Set(pos, i, math.Cos(angle))
			}
		}
	}
	return &PositionalEncoding{MaxLen: maxLen, Dim: dim, table: table}
}

// Forward adds the positional table to x (l × dim), l <= MaxLen.
func (p *PositionalEncoding) Forward(x *tensor.Tensor) *tensor.Tensor {
	l, d := x.Rows(), x.Cols()
	if d != p.Dim {
		panic(fmt.Sprintf("nn: positional encoding dim %d vs input %d", p.Dim, d))
	}
	if l > p.MaxLen {
		panic(fmt.Sprintf("nn: sequence length %d exceeds max %d", l, p.MaxLen))
	}
	sub := tensor.FromData(p.table.Data[:l*d], l, d)
	return tensor.Add(x, sub)
}

// Rows returns the first l rows of the table (l × Dim, row-major). The slice
// aliases the table and must be treated as read-only.
func (p *PositionalEncoding) Rows(l int) []float64 {
	if l > p.MaxLen {
		panic(fmt.Sprintf("nn: sequence length %d exceeds max %d", l, p.MaxLen))
	}
	return p.table.Data[:l*p.Dim]
}

// Params implements Module (the table is constant).
func (p *PositionalEncoding) Params() []*tensor.Tensor { return nil }

// ---------------------------------------------------------------------------
// Multi-head attention
// ---------------------------------------------------------------------------

// MultiHeadAttention implements scaled-dot-product attention with h heads:
//
//	MultiHeadAtt(Q,K,V) = Concat(H_1..H_h) W_o,  H_i = softmax(Q_i K_i^T/√d_h) V_i
//
// as in Eq. (3) of the paper. The per-head projections are stored as single
// matrices whose column blocks correspond to heads.
type MultiHeadAttention struct {
	Dim, Heads int
	headDim    int
	Wq, Wk, Wv *Linear
	Wo         *Linear
}

// NewMultiHeadAttention builds an attention block; dim must be divisible by
// heads.
func NewMultiHeadAttention(rng *rand.Rand, dim, heads int) *MultiHeadAttention {
	if heads <= 0 || dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads, headDim: dim / heads,
		Wq: NewLinear(rng, dim, dim),
		Wk: NewLinear(rng, dim, dim),
		Wv: NewLinear(rng, dim, dim),
		Wo: NewLinear(rng, dim, dim),
	}
}

// Scores returns the post-softmax attention weights of query q (lq × dim)
// against keys k (lk × dim), one (lq × lk) tensor per head: softmax(Q_i
// K_i^T/√d_h + mask). mask, if non-nil, is an additive (lq × lk) bias applied
// to the logits (use large negative values to mask positions out). Scores
// reads the module and mutates nothing, so any number of goroutines may call
// it on one module; Forward computes its attention weights through it, which
// makes these the exact maps a forward pass applies (the paper's Fig. 14).
func (m *MultiHeadAttention) Scores(q, k, mask *tensor.Tensor) []*tensor.Tensor {
	qp := m.Wq.Forward(q)
	kp := m.Wk.Forward(k)
	scale := 1 / math.Sqrt(float64(m.headDim))
	scores := make([]*tensor.Tensor, m.Heads)
	for h := range scores {
		off := h * m.headDim
		qh := tensor.NarrowCols(qp, off, m.headDim)
		kh := tensor.NarrowCols(kp, off, m.headDim)
		logits := tensor.Scale(tensor.MatMul(qh, tensor.Transpose(kh)), scale)
		if mask != nil {
			logits = tensor.Add(logits, mask)
		}
		scores[h] = tensor.Softmax(logits)
	}
	return scores
}

// Forward computes attention of query q (lq × dim) against keys/values
// k, v (lk × dim), with the optional additive logit mask of Scores.
func (m *MultiHeadAttention) Forward(q, k, v, mask *tensor.Tensor) *tensor.Tensor {
	scores := m.Scores(q, k, mask)
	vp := m.Wv.Forward(v)
	var heads *tensor.Tensor
	for h, att := range scores {
		out := tensor.MatMul(att, tensor.NarrowCols(vp, h*m.headDim, m.headDim))
		if heads == nil {
			heads = out
		} else {
			heads = tensor.ConcatCols(heads, out)
		}
	}
	return m.Wo.Forward(heads)
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*tensor.Tensor {
	return CollectParams(m.Wq, m.Wk, m.Wv, m.Wo)
}

// ---------------------------------------------------------------------------
// Transformer encoder
// ---------------------------------------------------------------------------

// EncoderLayer is one pre-activation Transformer encoder block:
// self-attention and a position-wise feed-forward network, each wrapped with
// a residual connection and layer normalization.
type EncoderLayer struct {
	Att        *MultiHeadAttention
	FF         *FeedForward
	Norm1      *LayerNorm
	Norm2      *LayerNorm
	Drop1      *Dropout
	Drop2      *Dropout
	Dim, FFDim int
}

// NewEncoderLayer builds an encoder layer with model width dim, ffDim hidden
// units in the feed-forward subnetwork, and the given number of heads.
func NewEncoderLayer(rng *rand.Rand, dim, ffDim, heads int, dropout float64) *EncoderLayer {
	return &EncoderLayer{
		Att:   NewMultiHeadAttention(rng, dim, heads),
		FF:    NewFeedForward(rng, dim, ffDim, dim),
		Norm1: NewLayerNorm(dim),
		Norm2: NewLayerNorm(dim),
		Drop1: NewDropout(rng, dropout),
		Drop2: NewDropout(rng, dropout),
		Dim:   dim, FFDim: ffDim,
	}
}

// Forward applies the layer to x (l × dim).
func (e *EncoderLayer) Forward(x *tensor.Tensor) *tensor.Tensor {
	att := e.Att.Forward(x, x, x, nil)
	x = e.Norm1.Forward(tensor.Add(x, e.Drop1.Forward(att)))
	ff := e.FF.Forward(x)
	return e.Norm2.Forward(tensor.Add(x, e.Drop2.Forward(ff)))
}

// SetTrain toggles training-mode behaviour (dropout).
func (e *EncoderLayer) SetTrain(train bool) {
	e.Drop1.Train = train
	e.Drop2.Train = train
}

// SetDropoutRNG installs one shared random stream on both dropout layers
// (mirroring the constructor, where they share the model rng and draw in
// forward order).
func (e *EncoderLayer) SetDropoutRNG(rng *rand.Rand) {
	e.Drop1.SetRNG(rng)
	e.Drop2.SetRNG(rng)
}

// Params implements Module.
func (e *EncoderLayer) Params() []*tensor.Tensor {
	return CollectParams(e.Att, e.FF, e.Norm1, e.Norm2)
}

// Encoder is a stack of N encoder layers (the paper uses N = 2).
type Encoder struct {
	Layers []*EncoderLayer
}

// NewEncoder builds a stack of n encoder layers.
func NewEncoder(rng *rand.Rand, n, dim, ffDim, heads int, dropout float64) *Encoder {
	layers := make([]*EncoderLayer, n)
	for i := range layers {
		layers[i] = NewEncoderLayer(rng, dim, ffDim, heads, dropout)
	}
	return &Encoder{Layers: layers}
}

// Forward applies the stack to x.
func (e *Encoder) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range e.Layers {
		x = l.Forward(x)
	}
	return x
}

// SetTrain toggles training-mode behaviour of every layer.
func (e *Encoder) SetTrain(train bool) {
	for _, l := range e.Layers {
		l.SetTrain(train)
	}
}

// SetDropoutRNG installs one shared random stream on every layer's dropout,
// so mask draws consume it in forward order exactly like the constructor's
// shared model rng.
func (e *Encoder) SetDropoutRNG(rng *rand.Rand) {
	for _, l := range e.Layers {
		l.SetDropoutRNG(rng)
	}
}

// Params implements Module.
func (e *Encoder) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range e.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
