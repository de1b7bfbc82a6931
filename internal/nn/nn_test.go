package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepbat/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 3, 5)
	x := tensor.Randn(rng, 1, 4, 3)
	y := l.Forward(x)
	if y.Rows() != 4 || y.Cols() != 5 {
		t.Fatalf("Linear output shape = %v", y.Shape)
	}
	if len(l.Params()) != 2 {
		t.Fatal("Linear should expose W and B")
	}
	if NumParams(l) != 3*5+5 {
		t.Fatalf("NumParams = %d", NumParams(l))
	}
}

func TestLinearComputesAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 2, 2)
	copy(l.W.Data, []float64{1, 2, 3, 4})
	copy(l.B.Data, []float64{10, 20})
	x := tensor.FromData([]float64{1, 1}, 1, 2)
	y := l.Forward(x)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("Linear forward = %v", y.Data)
	}
}

func TestFeedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ff := NewFeedForward(rng, 4, 8, 2)
	x := tensor.Randn(rng, 1, 3, 4)
	y := ff.Forward(x)
	if y.Rows() != 3 || y.Cols() != 2 {
		t.Fatalf("FF output shape = %v", y.Shape)
	}
	if len(ff.Params()) != 4 {
		t.Fatal("FF should expose 4 tensors")
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	ln := NewLayerNorm(4)
	x := tensor.FromData([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 2, 4)
	y := ln.Forward(x)
	for r := 0; r < 2; r++ {
		mean, v := 0.0, 0.0
		for c := 0; c < 4; c++ {
			mean += y.At(r, c)
		}
		mean /= 4
		for c := 0; c < 4; c++ {
			d := y.At(r, c) - mean
			v += d * d
		}
		v /= 4
		if math.Abs(mean) > 1e-9 || math.Abs(v-1) > 1e-3 {
			t.Fatalf("row %d: mean=%v var=%v", r, mean, v)
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDropout(rng, 0.5)
	x := tensor.Full(1, 100, 10)

	// Eval mode: identity (same tensor back).
	if got := d.Forward(x); got != x {
		t.Fatal("eval-mode dropout should be identity")
	}

	d.Train = true
	y := d.Forward(x)
	zeros, scaled := 0, 0
	for _, v := range y.Data {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-2) < 1e-12:
			scaled++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros == 0 || scaled == 0 {
		t.Fatalf("dropout did not both drop and keep: zeros=%d scaled=%d", zeros, scaled)
	}
	frac := float64(zeros) / float64(len(y.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("drop fraction = %v, want ~0.5", frac)
	}
}

func TestDropoutZeroP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout(rng, 0)
	d.Train = true
	x := tensor.Full(3, 2, 2)
	if got := d.Forward(x); got != x {
		t.Fatal("p=0 dropout should be identity")
	}
}

func TestPositionalEncodingValues(t *testing.T) {
	pe := NewPositionalEncoding(16, 4)
	x := tensor.New(3, 4)
	y := pe.Forward(x)
	// Position 0: sin(0)=0, cos(0)=1 alternating.
	if y.At(0, 0) != 0 || y.At(0, 1) != 1 || y.At(0, 2) != 0 || y.At(0, 3) != 1 {
		t.Fatalf("pos 0 encoding = %v", y.Data[:4])
	}
	// Position 1, dim 0: sin(1).
	if math.Abs(y.At(1, 0)-math.Sin(1)) > 1e-12 {
		t.Fatalf("pos 1 dim 0 = %v", y.At(1, 0))
	}
	// Distinct positions should get distinct encodings.
	same := true
	for c := 0; c < 4; c++ {
		if y.At(1, c) != y.At(2, c) {
			same = false
		}
	}
	if same {
		t.Fatal("positions 1 and 2 have identical encodings")
	}
}

func TestPositionalEncodingPanics(t *testing.T) {
	pe := NewPositionalEncoding(4, 4)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("too long", func() { pe.Forward(tensor.New(5, 4)) })
	mustPanic("bad dim", func() { pe.Forward(tensor.New(2, 3)) })
}

func TestMultiHeadAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMultiHeadAttention(rng, 8, 2)
	x := tensor.Randn(rng, 1, 5, 8)
	y := m.Forward(x, x, x, nil)
	if y.Rows() != 5 || y.Cols() != 8 {
		t.Fatalf("MHA output shape = %v", y.Shape)
	}
	scores := m.Scores(x, x, nil)
	if len(scores) != 2 {
		t.Fatalf("Scores heads = %d", len(scores))
	}
	for _, s := range scores {
		if s.Rows() != 5 || s.Cols() != 5 {
			t.Fatalf("score shape = %v", s.Shape)
		}
		for r := 0; r < 5; r++ {
			sum := 0.0
			for c := 0; c < 5; c++ {
				sum += s.At(r, c)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("attention row does not sum to 1: %v", sum)
			}
		}
	}
}

func TestMultiHeadAttentionMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMultiHeadAttention(rng, 4, 1)
	x := tensor.Randn(rng, 1, 3, 4)
	mask := tensor.New(3, 3)
	// Mask out attention to position 2 from everyone.
	for r := 0; r < 3; r++ {
		mask.Set(r, 2, -1e9)
	}
	s := m.Scores(x, x, mask)[0]
	for r := 0; r < 3; r++ {
		if s.At(r, 2) > 1e-6 {
			t.Fatalf("masked position received attention %v", s.At(r, 2))
		}
	}
}

func TestMultiHeadAttentionCross(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMultiHeadAttention(rng, 4, 2)
	q := tensor.Randn(rng, 1, 1, 4)
	kv := tensor.Randn(rng, 1, 6, 4)
	y := m.Forward(q, kv, kv, nil)
	if y.Rows() != 1 || y.Cols() != 4 {
		t.Fatalf("cross-attention shape = %v", y.Shape)
	}
	if s := m.Scores(q, kv, nil)[0]; s.Rows() != 1 || s.Cols() != 6 {
		t.Fatalf("cross score shape = %v", s.Shape)
	}
}

func TestMultiHeadAttentionBadHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim not divisible by heads")
		}
	}()
	NewMultiHeadAttention(rand.New(rand.NewSource(1)), 6, 4)
}

func TestEncoderForwardAndTrainToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	enc := NewEncoder(rng, 2, 8, 16, 2, 0.1)
	x := tensor.Randn(rng, 1, 6, 8)
	y := enc.Forward(x)
	if y.Rows() != 6 || y.Cols() != 8 {
		t.Fatalf("encoder output shape = %v", y.Shape)
	}
	// Deterministic in eval mode.
	y2 := enc.Forward(x)
	for i := range y.Data {
		if y.Data[i] != y2.Data[i] {
			t.Fatal("eval-mode encoder is not deterministic")
		}
	}
	enc.SetTrain(true)
	y3 := enc.Forward(x)
	diff := false
	for i := range y.Data {
		if y.Data[i] != y3.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("train-mode dropout had no effect")
	}
	enc.SetTrain(false)
}

func TestEncoderParamsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	enc := NewEncoder(rng, 2, 16, 32, 2, 0)
	// Per layer: MHA 4 linears (16x16+16 each) + FF (16x32+32, 32x16+16) + 2 norms (16+16 each).
	perLayer := 4*(16*16+16) + (16*32 + 32) + (32*16 + 16) + 2*(16+16)
	if got := NumParams(enc); got != 2*perLayer {
		t.Fatalf("NumParams = %d, want %d", got, 2*perLayer)
	}
}

func TestEncoderGradientFlow(t *testing.T) {
	// Every parameter should receive a gradient after a backward pass.
	rng := rand.New(rand.NewSource(11))
	enc := NewEncoder(rng, 1, 4, 8, 2, 0)
	x := tensor.Randn(rng, 1, 3, 4)
	y := enc.Forward(x)
	loss := tensor.SumAll(tensor.Mul(y, y))
	tensor.Backward(loss)
	for i, p := range enc.Params() {
		nonzero := false
		for _, g := range p.Grad {
			if g != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Fatalf("param %d received no gradient", i)
		}
	}
}

func TestMHAGradCheck(t *testing.T) {
	// Finite-difference check through the full attention block.
	rng := rand.New(rand.NewSource(12))
	m := NewMultiHeadAttention(rng, 4, 2)
	x := tensor.Randn(rng, 1, 3, 4).RequireGrad()
	build := func() *tensor.Tensor {
		y := m.Forward(x, x, x, nil)
		return tensor.SumAll(tensor.Mul(y, y))
	}
	loss := build()
	tensor.Backward(loss)
	got := append([]float64(nil), x.Grad...)
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := build().Item()
		x.Data[i] = orig - h
		down := build().Item()
		x.Data[i] = orig
		want := (up - down) / (2 * h)
		if math.Abs(got[i]-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("MHA grad[%d] = %v, numeric %v", i, got[i], want)
		}
	}
}

func TestCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewLinear(rng, 2, 2)
	b := NewLinear(rng, 2, 2)
	if got := len(CollectParams(a, b)); got != 4 {
		t.Fatalf("CollectParams = %d", got)
	}
}

func TestEncoderReplicateSharesWeightsNotGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	enc := NewEncoder(rng, 2, 8, 16, 2, 0)
	rep := enc.Replicate()
	ps, rs := enc.Params(), rep.Params()
	if len(ps) != len(rs) {
		t.Fatalf("replica param count %d vs %d", len(rs), len(ps))
	}
	for i := range ps {
		if &ps[i].Data[0] != &rs[i].Data[0] {
			t.Fatalf("param %d does not share weight storage", i)
		}
		if &ps[i].Grad[0] == &rs[i].Grad[0] {
			t.Fatalf("param %d shares gradient storage", i)
		}
	}
	// Identical forwards from shared weights.
	x := tensor.Randn(rng, 1, 5, 8)
	y1 := enc.Forward(x)
	y2 := rep.Forward(x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("replica forward differs from original")
		}
	}
	// A backward through the replica must leave the original's grads alone.
	xr := tensor.Randn(rng, 1, 5, 8).RequireGrad()
	tensor.Backward(tensor.SumAll(tensor.Mul(rep.Forward(xr), rep.Forward(xr))))
	for i := range ps {
		for _, g := range ps[i].Grad {
			if g != 0 {
				t.Fatalf("original param %d gradient polluted by replica backward", i)
			}
		}
	}
	// A weight update through the original is visible to the replica.
	ps[0].Data[0] += 0.5
	if rs[0].Data[0] != ps[0].Data[0] {
		t.Fatal("weight update not visible through replica")
	}
}

func TestDropoutReplicateAndSetRNG(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := NewDropout(rng, 0.5)
	d.Train = true
	rep := d.Replicate()
	if rep.P != d.P || !rep.Train {
		t.Fatalf("replica lost configuration: %+v", rep)
	}
	x := tensor.Full(1, 4, 4)
	// Same seed -> same mask; different seed -> (almost surely) different.
	rep.SetRNG(rand.New(rand.NewSource(7)))
	a := rep.Forward(x)
	rep.SetRNG(rand.New(rand.NewSource(7)))
	b := rep.Forward(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("reseeded dropout is not deterministic")
		}
	}
}

// TestScoresAreTheMapsForwardApplies rebuilds Forward from Scores —
// Wo(concat_h(Scores_h · V_h)) — and requires it bit for bit, with and without
// a mask, so the maps Scores returns are the ones a forward pass uses.
// Scores must also leave the module untouched: a second call returns the same
// bits.
func TestScoresAreTheMapsForwardApplies(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewMultiHeadAttention(rng, 8, 2)
	q := tensor.Randn(rng, 1, 3, 8)
	kv := tensor.Randn(rng, 1, 4, 8)
	mask := tensor.New(3, 4)
	mask.Set(1, 2, -1e9)
	for _, mk := range []*tensor.Tensor{nil, mask} {
		scores := m.Scores(q, kv, mk)
		vp := m.Wv.Forward(kv)
		var heads *tensor.Tensor
		for h, att := range scores {
			out := tensor.MatMul(att, tensor.NarrowCols(vp, h*m.headDim, m.headDim))
			if heads == nil {
				heads = out
			} else {
				heads = tensor.ConcatCols(heads, out)
			}
		}
		want := m.Wo.Forward(heads)
		got := m.Forward(q, kv, kv, mk)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("mask=%v: Forward[%d] = %v, rebuilt from Scores %v", mk != nil, i, got.Data[i], want.Data[i])
			}
		}
		again := m.Scores(q, kv, mk)
		for h := range scores {
			for i := range scores[h].Data {
				if math.Float64bits(again[h].Data[i]) != math.Float64bits(scores[h].Data[i]) {
					t.Fatalf("mask=%v: second Scores call differs at head %d [%d]", mk != nil, h, i)
				}
			}
		}
	}
}
