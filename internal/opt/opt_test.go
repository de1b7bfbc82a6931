package opt

import (
	"math"
	"math/rand"
	"testing"

	"deepbat/internal/tensor"
)

// quadLoss builds the loss (x - target)^2 summed, whose minimum is at target.
func quadLoss(x, target *tensor.Tensor) *tensor.Tensor {
	d := tensor.Sub(x, target)
	return tensor.SumAll(tensor.Mul(d, d))
}

func optimize(t *testing.T, makeOpt func([]*tensor.Tensor) Optimizer, steps int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := tensor.Randn(rng, 1, 4).RequireGrad()
	target := tensor.FromData([]float64{1, -2, 3, 0.5}, 4)
	o := makeOpt([]*tensor.Tensor{x})
	var last float64
	for i := 0; i < steps; i++ {
		o.ZeroGrad()
		loss := quadLoss(x, target)
		tensor.Backward(loss)
		o.Step()
		last = loss.Item()
	}
	return last
}

func TestSGDConverges(t *testing.T) {
	final := optimize(t, func(ps []*tensor.Tensor) Optimizer {
		return NewSGD(ps, 0.1, 0)
	}, 200)
	if final > 1e-6 {
		t.Fatalf("SGD final loss = %v", final)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	final := optimize(t, func(ps []*tensor.Tensor) Optimizer {
		return NewSGD(ps, 0.05, 0.9)
	}, 200)
	if final > 1e-6 {
		t.Fatalf("SGD+momentum final loss = %v", final)
	}
}

func TestAdamConverges(t *testing.T) {
	final := optimize(t, func(ps []*tensor.Tensor) Optimizer {
		return NewAdam(ps, 0.05)
	}, 500)
	if final > 1e-4 {
		t.Fatalf("Adam final loss = %v", final)
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ~lr
	// regardless of gradient scale.
	x := tensor.FromData([]float64{0}, 1).RequireGrad()
	x.Grad[0] = 1234.5
	a := NewAdam([]*tensor.Tensor{x}, 0.001)
	a.Step()
	if math.Abs(math.Abs(x.Data[0])-0.001) > 1e-6 {
		t.Fatalf("first Adam step = %v, want ~0.001", x.Data[0])
	}
}

func TestZeroGrad(t *testing.T) {
	x := tensor.FromData([]float64{1}, 1).RequireGrad()
	x.Grad[0] = 5
	o := NewAdam([]*tensor.Tensor{x}, 0.1)
	o.ZeroGrad()
	if x.Grad[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestSetLR(t *testing.T) {
	x := tensor.FromData([]float64{1}, 1).RequireGrad()
	for _, o := range []Optimizer{NewSGD([]*tensor.Tensor{x}, 0.1, 0), NewAdam([]*tensor.Tensor{x}, 0.1)} {
		o.SetLR(0.42)
		if o.LR() != 0.42 {
			t.Fatalf("SetLR/LR roundtrip failed for %T", o)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	x := tensor.FromData([]float64{0, 0}, 2).RequireGrad()
	x.Grad[0], x.Grad[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*tensor.Tensor{x}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("reported norm = %v, want 5", norm)
	}
	got := math.Sqrt(x.Grad[0]*x.Grad[0] + x.Grad[1]*x.Grad[1])
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("clipped norm = %v, want 1", got)
	}
	// No clipping when under the limit.
	x.Grad[0], x.Grad[1] = 0.1, 0
	ClipGradNorm([]*tensor.Tensor{x}, 1)
	if x.Grad[0] != 0.1 {
		t.Fatal("clip modified small gradients")
	}
}

func TestStepDecay(t *testing.T) {
	if got := StepDecay(1.0, 0.5, 10, 0); got != 1.0 {
		t.Fatalf("decay epoch 0 = %v", got)
	}
	if got := StepDecay(1.0, 0.5, 10, 25); got != 0.25 {
		t.Fatalf("decay epoch 25 = %v", got)
	}
	if got := StepDecay(1.0, 0.5, 0, 25); got != 1.0 {
		t.Fatalf("decay stepSize 0 = %v", got)
	}
}

func TestAdamBeatsSGDOnIllConditioned(t *testing.T) {
	// Loss with very different curvature per coordinate; Adam's per-parameter
	// scaling should reach a lower loss in the same number of steps as plain
	// SGD at a stable learning rate.
	run := func(makeOpt func([]*tensor.Tensor) Optimizer) float64 {
		x := tensor.FromData([]float64{5, 5}, 2).RequireGrad()
		scale := tensor.FromData([]float64{100, 0.01}, 2)
		o := makeOpt([]*tensor.Tensor{x})
		var last float64
		for i := 0; i < 100; i++ {
			o.ZeroGrad()
			sx := tensor.Mul(x, scale)
			loss := tensor.SumAll(tensor.Mul(sx, tensor.Mul(x, tensor.FromData([]float64{1, 1}, 2))))
			tensor.Backward(loss)
			o.Step()
			last = loss.Item()
		}
		return math.Abs(last)
	}
	sgd := run(func(ps []*tensor.Tensor) Optimizer { return NewSGD(ps, 0.005, 0) })
	adam := run(func(ps []*tensor.Tensor) Optimizer { return NewAdam(ps, 0.1) })
	if adam > sgd {
		t.Fatalf("Adam (%v) did not beat SGD (%v) on ill-conditioned quadratic", adam, sgd)
	}
}
