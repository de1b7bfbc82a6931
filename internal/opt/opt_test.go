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

func TestAdamConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := tensor.Randn(rng, 1, 4).RequireGrad()
	target := tensor.FromData([]float64{1, -2, 3, 0.5}, 4)
	o := NewAdam([]*tensor.Tensor{x}, 0.05)
	var final float64
	for i := 0; i < 500; i++ {
		o.ZeroGrad()
		loss := quadLoss(x, target)
		tensor.Backward(loss)
		o.Step()
		final = loss.Item()
	}
	if final > 1e-4 {
		t.Fatalf("Adam final loss = %v", final)
	}
}

// TestAdamMatchesFlatAdam steps three tensors with Adam and their
// concatenation with FlatAdam from the same gradients: the parameters must
// agree bit for bit after every step.
func TestAdamMatchesFlatAdam(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := []*tensor.Tensor{tensor.Randn(rng, 1, 2, 3).RequireGrad(), tensor.Randn(rng, 1, 1).RequireGrad(), tensor.Randn(rng, 1, 4).RequireGrad()}
	var flat []float64
	for _, p := range ts {
		flat = append(flat, p.Data...)
	}
	a, f := NewAdam(ts, 0.01), NewFlatAdam(len(flat), 0.01)
	grad := make([]float64, len(flat))
	for step := 0; step < 20; step++ {
		off := 0
		for _, p := range ts {
			for j := range p.Grad {
				p.Grad[j] = rng.NormFloat64()
				grad[off+j] = p.Grad[j]
			}
			off += len(p.Grad)
		}
		a.Step()
		f.Step(flat, grad)
		off = 0
		for i, p := range ts {
			for j, v := range p.Data {
				if math.Float64bits(v) != math.Float64bits(flat[off+j]) {
					t.Fatalf("step %d: tensor %d element %d = %v, flat %v", step, i, j, v, flat[off+j])
				}
			}
			off += len(p.Data)
		}
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

func TestClipGradNorm(t *testing.T) {
	g := []float64{3, 4} // norm 5
	norm := ClipGradNorm(g, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("reported norm = %v, want 5", norm)
	}
	got := math.Sqrt(g[0]*g[0] + g[1]*g[1])
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("clipped norm = %v, want 1", got)
	}
	// No clipping when under the limit.
	g[0], g[1] = 0.1, 0
	ClipGradNorm(g, 1)
	if g[0] != 0.1 {
		t.Fatal("clip modified small gradients")
	}
}
