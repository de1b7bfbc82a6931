// Package opt implements the gradient-descent optimizers used to train the
// DeepBAT surrogate model: plain SGD (with optional momentum) and Adam with
// bias correction, plus global-norm gradient clipping.
package opt

import (
	"math"

	"deepbat/internal/tensor"
)

// Optimizer updates a fixed set of parameter tensors from their accumulated
// gradients.
type Optimizer interface {
	// Step applies one update using the current gradients.
	Step()
	// ZeroGrad clears all parameter gradients.
	ZeroGrad()
	// SetLR changes the learning rate.
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	params   []*tensor.Tensor
	lr       float64
	momentum float64
	velocity [][]float64
}

// NewSGD returns an SGD optimizer over params.
func NewSGD(params []*tensor.Tensor, lr, momentum float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum}
	if momentum != 0 {
		s.velocity = make([][]float64, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float64, p.NumEl())
		}
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for i, p := range s.params {
		if s.momentum != 0 {
			v := s.velocity[i]
			for j := range p.Data {
				v[j] = s.momentum*v[j] + p.Grad[j]
				p.Data[j] -= s.lr * v[j]
			}
		} else {
			for j := range p.Data {
				p.Data[j] -= s.lr * p.Grad[j]
			}
		}
	}
}

// ZeroGrad implements Optimizer.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// Adam is the Adam optimizer (Kingma & Ba) with bias-corrected first and
// second moment estimates, the optimizer used by the paper (lr = 1e-3).
type Adam struct {
	params []*tensor.Tensor
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   [][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(params []*tensor.Tensor, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, p.NumEl())
		a.v[i] = make([]float64, p.NumEl())
	}
	return a
}

// Step implements Optimizer.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := p.Grad[j]
			m[j] = a.beta1*m[j] + (1-a.beta1)*g
			v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			p.Data[j] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
		}
	}
}

// ZeroGrad implements Optimizer.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// GradNorm returns the global L2 norm of the gradients of params without
// modifying them.
func GradNorm(params []*tensor.Tensor) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	return math.Sqrt(total)
}

// ClipGradNorm rescales the gradients of params so their global L2 norm does
// not exceed maxNorm. It returns the pre-clipping norm.
func ClipGradNorm(params []*tensor.Tensor, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for j := range p.Grad {
				p.Grad[j] *= scale
			}
		}
	}
	return norm
}

// StepDecay returns the learning rate after applying multiplicative decay
// gamma every stepSize epochs: lr0 * gamma^(epoch/stepSize).
func StepDecay(lr0, gamma float64, stepSize, epoch int) float64 {
	if stepSize <= 0 {
		return lr0
	}
	return lr0 * math.Pow(gamma, float64(epoch/stepSize))
}
