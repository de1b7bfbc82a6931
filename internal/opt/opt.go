// Package opt implements the optimizer used to train the DeepBAT surrogate
// model: Adam with bias correction, plus global-norm gradient clipping.
// FlatAdam steps one flat parameter slice (the surrogate's parameter block);
// Adam steps a set of parameter tensors (the autograd tape's) with the same
// per-element update.
package opt

import (
	"math"

	"deepbat/internal/tensor"
)

// FlatAdam is the Adam optimizer (Kingma & Ba) over one flat parameter
// slice, with bias-corrected first and second moment estimates, the
// optimizer used by the paper (lr = 1e-3).
type FlatAdam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  []float64
}

// NewFlatAdam returns an Adam optimizer over n parameters with the standard
// defaults beta1=0.9, beta2=0.999, eps=1e-8.
func NewFlatAdam(n int, lr float64) *FlatAdam {
	return &FlatAdam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: make([]float64, n), v: make([]float64, n)}
}

// Step applies one update to params from grad, both of the length the
// optimizer was made for.
func (a *FlatAdam) Step(params, grad []float64) {
	c1, c2 := a.next()
	a.update(params, grad, 0, c1, c2)
}

// next advances the step count and returns its bias corrections.
func (a *FlatAdam) next() (c1, c2 float64) {
	a.t++
	return 1 - math.Pow(a.beta1, float64(a.t)), 1 - math.Pow(a.beta2, float64(a.t))
}

// update applies the per-element Adam update to p from g, with p's moments
// at [off, off+len(p)).
func (a *FlatAdam) update(p, g []float64, off int, c1, c2 float64) {
	m, v := a.m[off:off+len(p)], a.v[off:off+len(p)]
	for j, gj := range g[:len(p)] {
		m[j] = a.beta1*m[j] + (1-a.beta1)*gj
		v[j] = a.beta2*v[j] + (1-a.beta2)*gj*gj
		mh := m[j] / c1
		vh := v[j] / c2
		p[j] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
	}
}

// Adam is FlatAdam over a set of parameter tensors, stepping each from its
// accumulated gradient; their moments lie end to end in tensor order.
type Adam struct {
	params []*tensor.Tensor
	flat   *FlatAdam
}

// NewAdam returns an Adam optimizer over params with the defaults of
// NewFlatAdam.
func NewAdam(params []*tensor.Tensor, lr float64) *Adam {
	n := 0
	for _, p := range params {
		n += p.NumEl()
	}
	return &Adam{params: params, flat: NewFlatAdam(n, lr)}
}

// Step applies one update using the current gradients.
func (a *Adam) Step() {
	c1, c2 := a.flat.next()
	off := 0
	for _, p := range a.params {
		a.flat.update(p.Data, p.Grad, off, c1, c2)
		off += len(p.Data)
	}
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// GradNorm returns the L2 norm of the flat gradient g, summing the squares
// in order.
func GradNorm(g []float64) float64 {
	total := 0.0
	for _, v := range g {
		total += v * v
	}
	return math.Sqrt(total)
}

// ClipGradNorm rescales g so its L2 norm does not exceed maxNorm. It returns
// the pre-clipping norm.
func ClipGradNorm(g []float64, maxNorm float64) float64 {
	norm := GradNorm(g)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for j := range g {
			g[j] *= scale
		}
	}
	return norm
}
