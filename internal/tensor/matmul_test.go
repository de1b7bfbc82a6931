package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepbat/internal/gemm"
)

// oddShapes are the ragged products every kernel must handle: single-row,
// single-column, single-inner-dim, and odd sizes that fill no tile evenly.
var oddShapes = []struct{ n, k, m int }{
	{1, 1, 1},
	{1, 7, 5},
	{3, 1, 9},
	{5, 4, 1},
	{2, 3, 2},
	{7, 7, 7},
	{13, 5, 11},
	{64, 3, 17},
	{31, 32, 33},
}

// TestMatMulBackwardMatchesNaive checks the dA and dB kernels, reached
// through the tape, against a direct dA = G @ B^T, dB = A^T @ G computation
// on the ragged shapes and on a product above gemm.BlockedThreshold. The
// upstream gradient G is random, A is sparsified to cover dB's skip-on-zero
// branch, and both gradients start nonzero to cover the += semantics.
func TestMatMulBackwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := append([]struct{ n, k, m int }{{48, 40, 44}}, oddShapes...)
	for _, s := range shapes {
		n, k, m := s.n, s.k, s.m
		a := Randn(rng, 1, n, k).RequireGrad()
		for i := range a.Data {
			if rng.Float64() < 0.25 {
				a.Data[i] = 0
			}
		}
		b := Randn(rng, 1, k, m).RequireGrad()
		g := Randn(rng, 1, n, m)
		copy(a.Grad, Randn(rng, 0.1, n, k).Data)
		copy(b.Grad, Randn(rng, 0.1, k, m).Data)
		seedA := append([]float64(nil), a.Grad...)
		seedB := append([]float64(nil), b.Grad...)
		Backward(SumAll(Mul(MatMul(a, b), g)))
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				want := seedA[i*k+j]
				for c := 0; c < m; c++ {
					want += g.Data[i*m+c] * b.Data[j*m+c]
				}
				got := a.Grad[i*k+j]
				if diff := got - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("shape %v: dA[%d,%d] = %v, want %v", s, i, j, got, want)
				}
			}
		}
		for j := 0; j < k; j++ {
			for c := 0; c < m; c++ {
				want := seedB[j*m+c]
				for i := 0; i < n; i++ {
					want += a.Data[i*k+j] * g.Data[i*m+c]
				}
				got := b.Grad[j*m+c]
				if diff := got - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("shape %v: dB[%d,%d] = %v, want %v", s, j, c, got, want)
				}
			}
		}
	}
}

// buildGraph exercises every forward op of the package on deterministic
// inputs and returns the flattened output values, so a grad-mode run can be
// compared against a no-grad run.
func buildGraph(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	a := Randn(rng, 1, 3, 4).RequireGrad()
	b := Randn(rng, 1, 3, 4).RequireGrad()
	w := Randn(rng, 1, 4, 2).RequireGrad()
	bias := Randn(rng, 1, 2).RequireGrad()
	gain := Full(1, 4).RequireGrad()
	gbias := New(4).RequireGrad()
	target := Randn(rng, 1, 1, 2)

	x := Add(a, b)
	x = Sub(x, Mul(a, b))
	x = LayerNorm(x, gain, gbias, 1e-5)
	x = Scale(AddScalar(x, 0.1), 1.3)
	h := AddRow(MatMul(x, w), bias) // (3, 2)
	h = ConcatCols(h, Tanh(h))      // (3, 4)
	h = NarrowCols(h, 1, 2)         // (3, 2)
	h = Softmax(h)                  // (3, 2)
	h = Mul(ReLU(h), Sigmoid(h))    // (3, 2)
	pooled := MeanRows(h)           // (1, 2)
	pooled = Reshape(pooled, 1, 2)  // (1, 2)
	tr := Transpose(pooled)         // (2, 1)
	flatT := Reshape(tr, 1, 2)
	hub := Huber(pooled, target, 1.0, nil)
	mape := MAPELoss(pooled, target, nil)
	mse := MSE(flatT, target)
	total := Add(Add(hub, mape), Add(mse, MeanAll(h)))
	total = Add(total, SumAll(pooled))

	var out []float64
	out = append(out, h.Data...)
	out = append(out, pooled.Data...)
	out = append(out, total.Data...)
	return out
}

// TestNoGradForwardBitIdentical fuzzes the whole op set: forward values
// computed inside NoGrad must equal grad-mode values bit-for-bit.
func TestNoGradForwardBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		want := buildGraph(seed)
		var got []float64
		NoGrad(func() { got = buildGraph(seed) })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNoGradProducesLeaves checks the tape-suppression semantics: results
// computed under NoGrad carry no parents, no gradient storage, and cannot
// backpropagate into grad-requiring inputs.
func TestNoGradProducesLeaves(t *testing.T) {
	a := FromData([]float64{1, 2}, 2).RequireGrad()
	b := FromData([]float64{3, 4}, 2).RequireGrad()
	var c *Tensor
	NoGrad(func() {
		c = Mul(Add(a, b), b)
	})
	if c.RequiresGrad() || c.Grad != nil {
		t.Fatal("NoGrad result should not require gradients")
	}
	if len(c.parents) != 0 || c.backward != nil {
		t.Fatal("NoGrad result should not be wired into the tape")
	}
	if c.Data[0] != 12 || c.Data[1] != 24 {
		t.Fatalf("NoGrad forward values wrong: %v", c.Data)
	}
}

func TestNoGradNestsAndRestores(t *testing.T) {
	a := FromData([]float64{1, 2}, 2).RequireGrad()
	records := func() bool { return Scale(a, 2).RequiresGrad() }
	if !records() {
		t.Fatal("gradients should be recorded by default")
	}
	NoGrad(func() {
		if records() {
			t.Fatal("gradients recorded inside NoGrad")
		}
		NoGrad(func() {
			if records() {
				t.Fatal("gradients recorded inside nested NoGrad")
			}
		})
		if records() {
			t.Fatal("inner scope exit re-enabled gradients too early")
		}
	})
	if !records() {
		t.Fatal("gradients not restored after NoGrad")
	}
}

func TestShareData(t *testing.T) {
	a := FromData([]float64{1, 2, 3}, 3).RequireGrad()
	Backward(SumAll(a))
	s := a.ShareData()
	if &s.Data[0] != &a.Data[0] {
		t.Fatal("ShareData must alias the weight storage")
	}
	if s.Grad == nil || &s.Grad[0] == &a.Grad[0] {
		t.Fatal("ShareData must allocate a private gradient buffer")
	}
	if !s.RequiresGrad() {
		t.Fatal("ShareData must preserve the grad requirement")
	}
	for _, g := range s.Grad {
		if g != 0 {
			t.Fatal("ShareData gradient buffer must start zeroed")
		}
	}
	// Writes through the clone are visible to the original (weight updates
	// propagate to replicas).
	s.Data[1] = 42
	if a.Data[1] != 42 {
		t.Fatal("ShareData write did not propagate")
	}
	// Gradients stay private.
	Backward(SumAll(Mul(s, s)))
	if a.Grad[0] != 1 {
		t.Fatalf("original gradient clobbered: %v", a.Grad)
	}
}

// TestMatMulBlockedDispatchBitIdentical drives MatMul through both sides
// of the gemm.BlockedThreshold dispatch — the ragged shapes stay on the
// naive kernel, the rest take the blocked one — and checks the result
// against the naive reference kernel bit for bit.
func TestMatMulBlockedDispatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := append([]struct{ n, k, m int }{
		{40, 40, 40},   // full + ragged tiles, just above threshold
		{33, 65, 31},   // every dimension odd
		{128, 16, 128}, // wide, small inner dim
		{64, 64, 64},
		{128, 64, 64},
	}, oddShapes...)
	for _, s := range shapes {
		a := Randn(rng, 1, s.n, s.k)
		b := Randn(rng, 1, s.k, s.m)
		// Sparsify to exercise the skip-on-zero contract.
		for i := range a.Data {
			if rng.Float64() < 0.25 {
				a.Data[i] = 0
			}
		}
		want := make([]float64, s.n*s.m)
		gemm.Naive(want, a.Data, b.Data, 0, s.n, s.k, s.m)
		got := MatMul(a, b)
		for i := range want {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
				t.Fatalf("shape %v: cell %d = %v, want %v (bitwise)", s, i, got.Data[i], want[i])
			}
		}
	}
}

// TestMatMulAllocBudget guards the allocation profile of the hot kernel: a
// steady-state 256x256 NoGrad MatMul must stay within a small constant
// number of allocations per op (output data + tensor bookkeeping; the pack
// scratch is pooled). Regressions here silently erode the grid-sweep wins.
func TestMatMulAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc budget is not meaningful")
	}
	rng := rand.New(rand.NewSource(53))
	a := Randn(rng, 1, 256, 256)
	b := Randn(rng, 1, 256, 256)
	var allocs float64
	NoGrad(func() {
		allocs = testing.AllocsPerRun(10, func() {
			MatMul(a, b)
		})
	})
	// 1 output data slice + tensor struct + shape slice, plus pool slack.
	const budget = 8
	if allocs > budget {
		t.Fatalf("MatMul(256x256) allocates %.1f/op, budget %d", allocs, budget)
	}
}
