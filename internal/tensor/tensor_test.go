package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numGrad numerically estimates d f / d leaf[i] using central differences,
// where f rebuilds the scalar loss from scratch each call.
func numGrad(leaf *Tensor, i int, f func() float64) float64 {
	const h = 1e-6
	orig := leaf.Data[i]
	leaf.Data[i] = orig + h
	up := f()
	leaf.Data[i] = orig - h
	down := f()
	leaf.Data[i] = orig
	return (up - down) / (2 * h)
}

// checkGrads verifies the analytic gradient of every element of each leaf
// against a numerical estimate.
func checkGrads(t *testing.T, leaves []*Tensor, build func() *Tensor, tol float64) {
	t.Helper()
	loss := build()
	Backward(loss)
	f := func() float64 { return build().Item() }
	for li, leaf := range leaves {
		for i := range leaf.Data {
			want := numGrad(leaf, i, f)
			got := leaf.Grad[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("leaf %d elem %d: grad = %v, numeric = %v", li, i, got, want)
			}
		}
	}
}

func randLeaf(rng *rand.Rand, shape ...int) *Tensor {
	return Randn(rng, 1, shape...).RequireGrad()
}

func TestShapeHelpers(t *testing.T) {
	a := New(2, 3)
	if a.NumEl() != 6 || a.Rows() != 2 || a.Cols() != 3 || a.Dims() != 2 {
		t.Fatalf("shape helpers broken: %v", a)
	}
	a.Set(1, 2, 7)
	if a.At(1, 2) != 7 {
		t.Fatal("At/Set broken")
	}
	v := FromData([]float64{1, 2, 3}, 3)
	if v.Rows() != 1 || v.Cols() != 3 || v.At(0, 1) != 2 {
		t.Fatal("1-D accessors broken")
	}
	s := FromData([]float64{5}, 1)
	if s.Item() != 5 {
		t.Fatal("Item broken")
	}
	if Full(2, 2, 2).Data[3] != 2 {
		t.Fatal("Full broken")
	}
}

func TestClone(t *testing.T) {
	a := FromData([]float64{1, 2}, 2).RequireGrad()
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
	if !c.RequiresGrad() || c.Grad == nil {
		t.Fatal("Clone should preserve grad requirement")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("FromData", func() { FromData([]float64{1}, 2) })
	mustPanic("Add", func() { Add(New(2), New(3)) })
	mustPanic("MatMul dims", func() { MatMul(New(2), New(2, 2)) })
	mustPanic("MatMul inner", func() { MatMul(New(2, 3), New(2, 2)) })
	mustPanic("Item", func() { New(2).Item() })
	mustPanic("Backward nonscalar", func() { Backward(New(2).RequireGrad()) })
	mustPanic("Backward nograd", func() { Backward(New(1)) })
	mustPanic("NarrowCols", func() { NarrowCols(New(2, 3), 2, 2) })
	mustPanic("Reshape", func() { Reshape(New(2, 3), 7) })
	mustPanic("AddRow", func() { AddRow(New(2, 3), New(2)) })
	mustPanic("ConcatCols", func() { ConcatCols(New(2, 3), New(3, 3)) })
}

func TestAddSubMulForward(t *testing.T) {
	a := FromData([]float64{1, 2, 3}, 3)
	b := FromData([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data[1]; got != 7 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(a, b).Data[2]; got != -3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data[0]; got != 4 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestMatMulForward(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	b := FromData([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestTransposeForward(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := Transpose(a)
	if b.Shape[0] != 3 || b.Shape[1] != 2 || b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v %v", b.Shape, b.Data)
	}
}

func TestSoftmaxForward(t *testing.T) {
	a := FromData([]float64{1, 1, 1, 1000, 0, -1000}, 2, 3)
	s := Softmax(a)
	for c := 0; c < 3; c++ {
		if math.Abs(s.At(0, c)-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", s.Data[:3])
		}
	}
	if s.At(1, 0) < 0.999 { // numerically stable at extreme logits
		t.Fatalf("stable softmax = %v", s.Data[3:])
	}
	sum := s.At(1, 0) + s.At(1, 1) + s.At(1, 2)
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax row sum = %v", sum)
	}
}

func TestReLUForward(t *testing.T) {
	r := ReLU(FromData([]float64{-1, 0, 2}, 3))
	if r.Data[0] != 0 || r.Data[1] != 0 || r.Data[2] != 2 {
		t.Fatalf("ReLU = %v", r.Data)
	}
}

func TestMeanRowsForward(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 5}, 2, 2)
	m := MeanRows(a)
	if m.Shape[0] != 1 || m.Shape[1] != 2 || m.Data[0] != 2 || m.Data[1] != 3.5 {
		t.Fatalf("MeanRows = %v %v", m.Shape, m.Data)
	}
}

func TestConcatNarrow(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	b := FromData([]float64{5, 6}, 2, 1)
	c := ConcatCols(a, b)
	if c.Cols() != 3 || c.At(0, 2) != 5 || c.At(1, 2) != 6 || c.At(1, 0) != 3 {
		t.Fatalf("ConcatCols = %v", c.Data)
	}
	n := NarrowCols(c, 1, 2)
	if n.Cols() != 2 || n.At(0, 0) != 2 || n.At(1, 1) != 6 {
		t.Fatalf("NarrowCols = %v", n.Data)
	}
}

// --- Gradient checks ---

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randLeaf(rng, 3, 2)
	b := randLeaf(rng, 3, 2)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		return SumAll(Mul(Add(a, b), Sub(a, b)))
	}, 1e-4)
}

// TestGradScaleAddScalar checks Scale, with the scalar shift spelt as Add of a
// constant (no-grad) tensor.
func TestGradScaleAddScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randLeaf(rng, 4)
	shift := Full(3, 4)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		s := Scale(Add(a, shift), -2.5)
		return SumAll(Mul(s, s))
	}, 1e-4)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randLeaf(rng, 3, 4)
	b := randLeaf(rng, 4, 2)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		return SumAll(Mul(MatMul(a, b), MatMul(a, b)))
	}, 1e-3)
}

func TestGradTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randLeaf(rng, 2, 3)
	b := randLeaf(rng, 2, 3)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		return SumAll(MatMul(Transpose(a), b))
	}, 1e-4)
}

func TestGradAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randLeaf(rng, 3, 2)
	b := randLeaf(rng, 2)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		return SumAll(Mul(AddRow(a, b), AddRow(a, b)))
	}, 1e-4)
}

func TestGradReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randLeaf(rng, 5)
	// Keep values away from the kink at 0 for a clean numeric estimate.
	for i := range a.Data {
		if math.Abs(a.Data[i]) < 0.1 {
			a.Data[i] += 0.5
		}
	}
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		return SumAll(Mul(ReLU(a), ReLU(a)))
	}, 1e-4)
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randLeaf(rng, 2, 4)
	w := Randn(rng, 1, 2, 4)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		return SumAll(Mul(Softmax(a), w))
	}, 1e-4)
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randLeaf(rng, 3, 4)
	g := randLeaf(rng, 4)
	b := randLeaf(rng, 4)
	w := Randn(rng, 1, 3, 4)
	checkGrads(t, []*Tensor{x, g, b}, func() *Tensor {
		return SumAll(Mul(LayerNorm(x, g, b, 1e-5), w))
	}, 1e-3)
}

func TestGradMeanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randLeaf(rng, 4, 3)
	checkGrads(t, []*Tensor{a}, func() *Tensor {
		return SumAll(Mul(MeanRows(a), MeanRows(a)))
	}, 1e-4)
}

func TestGradConcatNarrowReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randLeaf(rng, 2, 3)
	b := randLeaf(rng, 2, 2)
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		c := ConcatCols(a, b)
		n := NarrowCols(c, 1, 3)
		r := Reshape(n, 3, 2)
		return SumAll(Mul(r, r))
	}, 1e-4)
}

func TestGradHuber(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pred := randLeaf(rng, 6)
	target := Randn(rng, 1, 6)
	// Spread predictions so both quadratic and linear regions are hit.
	pred.Data[0] = target.Data[0] + 5
	pred.Data[1] = target.Data[1] - 5
	pred.Data[2] = target.Data[2] + 0.3
	checkGrads(t, []*Tensor{pred}, func() *Tensor {
		return Huber(pred, target, 1.0, nil)
	}, 1e-4)
}

func TestGradHuberWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pred := randLeaf(rng, 4)
	target := Randn(rng, 1, 4)
	w := []float64{1, 2, 0.5, 3}
	checkGrads(t, []*Tensor{pred}, func() *Tensor {
		return Huber(pred, target, 1.0, w)
	}, 1e-4)
}

func TestGradMAPE(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pred := randLeaf(rng, 5)
	target := FromData([]float64{1.5, -2, 0.7, 3, 0}, 5) // last is skipped
	for i := range pred.Data {
		pred.Data[i] = target.Data[i] + 0.3 // keep away from |pred-target|=0 kink
	}
	checkGrads(t, []*Tensor{pred}, func() *Tensor {
		return MAPELoss(pred, target, nil)
	}, 1e-4)
}

func TestHuberForwardValues(t *testing.T) {
	pred := FromData([]float64{0, 3}, 2)
	target := FromData([]float64{0.5, 0}, 2)
	// |d|=0.5 <= 1: 0.5*0.25 = 0.125 ; |d|=3 > 1: 1*(3-0.5) = 2.5
	l := Huber(pred, target, 1.0, nil)
	if math.Abs(l.Item()-(0.125+2.5)/2) > 1e-12 {
		t.Fatalf("Huber = %v", l.Item())
	}
}

func TestMAPEForwardValues(t *testing.T) {
	pred := FromData([]float64{110, 90}, 2)
	target := FromData([]float64{100, 100}, 2)
	l := MAPELoss(pred, target, nil)
	if math.Abs(l.Item()-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v, want 0.1", l.Item())
	}
}

func TestBackwardAccumulatesThroughSharedNodes(t *testing.T) {
	a := FromData([]float64{2}, 1).RequireGrad()
	// loss = a*a + a  => d/da = 2a + 1 = 5
	loss := Add(Mul(a, a), a)
	Backward(loss)
	if math.Abs(a.Grad[0]-5) > 1e-12 {
		t.Fatalf("shared-node grad = %v, want 5", a.Grad[0])
	}
}

func TestZeroGrad(t *testing.T) {
	a := FromData([]float64{2}, 1).RequireGrad()
	Backward(Mul(a, a))
	if a.Grad[0] == 0 {
		t.Fatal("expected nonzero grad")
	}
	a.ZeroGrad()
	if a.Grad[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestNoGradPath(t *testing.T) {
	a := FromData([]float64{1, 2}, 2) // no grad
	b := FromData([]float64{3, 4}, 2)
	c := Add(a, b)
	if c.RequiresGrad() || c.Grad != nil {
		t.Fatal("grad should not propagate from non-grad leaves")
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// (alpha*A) @ B == alpha * (A @ B)
	f := func(seed int64, alphaRaw float64) bool {
		alpha := math.Mod(alphaRaw, 10)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 4, 2)
		left := MatMul(Scale(a, alpha), b)
		right := Scale(MatMul(a, b), alpha)
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 3, 4, 5)
		s := Softmax(a)
		for r := 0; r < 4; r++ {
			sum := 0.0
			for c := 0; c < 5; c++ {
				sum += s.At(r, c)
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 1, 3, 5)
		b := Transpose(Transpose(a))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
