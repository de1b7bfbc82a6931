// Package tensor implements the dense float64 tensors and the tape-based
// reverse-mode automatic differentiation engine that back the DeepBAT deep
// surrogate model. It is intentionally small: it supports exactly the
// operations needed by a Transformer encoder (matrix multiplication,
// broadcasting adds, softmax, layer normalization, attention reshaping) plus
// the loss primitives of the paper (Huber, MAPE), all with analytically
// derived gradients that are verified against finite differences in the test
// suite.
//
// Tensors are row-major. A Tensor created by an operation records its parents
// and a backward closure; calling Backward on a scalar result propagates
// gradients through the recorded tape in reverse topological order.
//
// There is no tape object: the graph is the tensors' parent links. A forward
// op only reads its inputs, so goroutines may build graphs over the same
// parameters at once (only Backward writes, into Grad), and a graph nobody
// holds is garbage.
//
// NoGrad suppresses parent and Grad recording process-wide; forward values
// are unchanged (bit-for-bit). No library code calls it: the switch is
// process-global, so a scope on one goroutine would strip the tape from a
// training step on another. It is kept only for the repository benchmark's
// two probes, which time the ops without the tape and run one at a time.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"deepbat/internal/gemm"
)

// noGradDepth counts the currently active NoGrad scopes across all
// goroutines. Gradients are recorded only while it is zero.
var noGradDepth atomic.Int32

// NoGrad runs fn with tape recording disabled: every tensor produced inside
// the scope is a leaf with no parents, no backward closure, and no Grad
// buffer. Forward values are identical to grad mode. Scopes nest. The scope
// is process-wide — it also disables recording on every other goroutine —
// so library code must not call it (see the package doc).
func NoGrad(fn func()) {
	noGradDepth.Add(1)
	defer noGradDepth.Add(-1)
	fn()
}

// Tensor is a dense row-major float64 tensor with optional gradient storage.
type Tensor struct {
	Data  []float64
	Shape []int
	Grad  []float64

	requiresGrad bool
	op           string
	parents      []*Tensor
	backward     func()
}

// numel returns the product of dims.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return n
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	s := append([]int(nil), shape...)
	return &Tensor{Data: make([]float64, numel(s)), Shape: s}
}

// FromData wraps data (not copied) in a tensor of the given shape.
// It panics if the element count does not match.
func FromData(data []float64, shape ...int) *Tensor {
	s := append([]int(nil), shape...)
	if len(data) != numel(s) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{Data: data, Shape: s}
}

// Randn returns a tensor with N(0, scale^2) entries drawn from rng.
func Randn(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	return t
}

// Full returns a tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Clone returns a deep copy of t's data and shape. The clone does not share
// the tape: it is a leaf.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	c.requiresGrad = t.requiresGrad
	if t.requiresGrad {
		c.Grad = make([]float64, len(c.Data))
	}
	return c
}

// RequireGrad marks t as a differentiable leaf and allocates gradient
// storage. It returns t for chaining.
func (t *Tensor) RequireGrad() *Tensor {
	t.requiresGrad = true
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	return t
}

// RequiresGrad reports whether t participates in gradient computation.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// Op returns the name of the operation that produced t ("" for leaves).
func (t *Tensor) Op() string { return t.op }

// NumEl returns the number of elements.
func (t *Tensor) NumEl() int { return len(t.Data) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Rows returns the first dimension of a 2-D tensor (or 1 for 1-D).
func (t *Tensor) Rows() int {
	if len(t.Shape) == 1 {
		return 1
	}
	return t.Shape[0]
}

// Cols returns the last dimension.
func (t *Tensor) Cols() int {
	if len(t.Shape) == 0 {
		return 0
	}
	return t.Shape[len(t.Shape)-1]
}

// At returns the element at (i, j) of a 2-D tensor, or Data[j] for 1-D with
// i==0.
func (t *Tensor) At(i, j int) float64 {
	if len(t.Shape) == 1 {
		if i != 0 {
			panic("tensor: row index out of range for 1-D tensor")
		}
		return t.Data[j]
	}
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns the element at (i, j).
func (t *Tensor) Set(i, j int, v float64) {
	if len(t.Shape) == 1 {
		if i != 0 {
			panic("tensor: row index out of range for 1-D tensor")
		}
		t.Data[j] = v
		return
	}
	t.Data[i*t.Shape[1]+j] = v
}

// ZeroGrad clears the gradient buffer (if any).
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Item returns the single element of a scalar tensor.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.Data)))
	}
	return t.Data[0]
}

// String implements fmt.Stringer with a compact shape/op description.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(shape=%v, op=%q, grad=%v)", t.Shape, t.op, t.requiresGrad)
}

// sameShape panics unless a and b have identical shapes.
func sameShape(op string, a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// result builds a child tensor wired into the tape. Under NoGrad it returns
// a bare leaf instead: same data, no parents, no gradient storage.
func result(op string, data []float64, shape []int, parents ...*Tensor) *Tensor {
	if noGradDepth.Load() != 0 {
		return &Tensor{Data: data, Shape: append([]int(nil), shape...), op: op}
	}
	out := &Tensor{Data: data, Shape: append([]int(nil), shape...), op: op, parents: parents}
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.Grad = make([]float64, len(data))
	}
	return out
}

// ---------------------------------------------------------------------------
// Elementwise binary operations
// ---------------------------------------------------------------------------

// Add returns a + b (same shape).
func Add(a, b *Tensor) *Tensor {
	sameShape("Add", a, b)
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] + b.Data[i]
	}
	out := result("add", data, a.Shape, a, b)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				for i := range b.Grad {
					b.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Sub returns a - b (same shape).
func Sub(a, b *Tensor) *Tensor {
	sameShape("Sub", a, b)
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] - b.Data[i]
	}
	out := result("sub", data, a.Shape, a, b)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				for i := range b.Grad {
					b.Grad[i] -= out.Grad[i]
				}
			}
		}
	}
	return out
}

// Mul returns the elementwise product a * b (same shape).
func Mul(a, b *Tensor) *Tensor {
	sameShape("Mul", a, b)
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * b.Data[i]
	}
	out := result("mul", data, a.Shape, a, b)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i] * b.Data[i]
				}
			}
			if b.requiresGrad {
				for i := range b.Grad {
					b.Grad[i] += out.Grad[i] * a.Data[i]
				}
			}
		}
	}
	return out
}

// AddRow adds the vector b (length m) to each row of the n-by-m tensor a.
func AddRow(a, b *Tensor) *Tensor {
	m := a.Cols()
	if b.NumEl() != m {
		panic(fmt.Sprintf("tensor: AddRow bias length %d vs cols %d", b.NumEl(), m))
	}
	n := len(a.Data) / m
	data := make([]float64, len(a.Data))
	for r := 0; r < n; r++ {
		off := r * m
		for c := 0; c < m; c++ {
			data[off+c] = a.Data[off+c] + b.Data[c]
		}
	}
	out := result("addrow", data, a.Shape, a, b)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				for r := 0; r < n; r++ {
					off := r * m
					for c := 0; c < m; c++ {
						b.Grad[c] += out.Grad[off+c]
					}
				}
			}
		}
	}
	return out
}

// Scale returns a * s for a scalar s.
func Scale(a *Tensor, s float64) *Tensor {
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * s
	}
	out := result("scale", data, a.Shape, a)
	if out.requiresGrad {
		out.backward = func() {
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i] * s
			}
		}
	}
	return out
}

// MatMul returns the matrix product of 2-D tensors a (n×k) and b (k×m).
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	n, k := a.Shape[0], a.Shape[1]
	k2, m := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	data := make([]float64, n*m)
	matmulInto(data, a.Data, b.Data, n, k, m)
	out := result("matmul", data, []int{n, m}, a, b)
	if out.requiresGrad {
		out.backward = func() {
			// dA = dOut @ B^T ; dB = A^T @ dOut
			if a.requiresGrad {
				matmulBackwardA(a.Grad, b.Data, out.Grad, n, k, m)
			}
			if b.requiresGrad {
				matmulBackwardB(b.Grad, a.Data, out.Grad, n, k, m)
			}
		}
	}
	return out
}

// packPool recycles the scratch buffers the blocked kernel packs B into.
// Buffers are fully overwritten by gemm.Pack before any read, so reuse can
// never leak stale values into a product.
var packPool sync.Pool

func getPackBuf(n int) *[]float64 {
	if v := packPool.Get(); v != nil {
		buf := v.(*[]float64)
		if cap(*buf) >= n {
			*buf = (*buf)[:n]
			return buf
		}
	}
	buf := make([]float64, n)
	return &buf
}

// matmulInto computes dst = A (n×k) × B (k×m). Large products route through
// the packed blocked kernel (gemm.Blocked), small ones through the naive
// reference kernel (gemm.Naive); the two are bit-identical, so the dispatch
// threshold affects speed only. The packed copy of B is pooled across calls.
func matmulInto(dst, a, b []float64, n, k, m int) {
	if n*k*m >= gemm.BlockedThreshold {
		buf := getPackBuf(gemm.PackedLen(k, m))
		gemm.Pack(*buf, b, k, m)
		gemm.Blocked(dst, a, *buf, 0, n, k, m)
		packPool.Put(buf)
		return
	}
	gemm.Naive(dst, a, b, 0, n, k, m)
}

// matmulBackwardA accumulates dA += dOut @ B^T. Every (i, j) cell sums over
// c in ascending order.
func matmulBackwardA(aGrad, b, outGrad []float64, n, k, m int) {
	for i := 0; i < n; i++ {
		gOff := i * m
		aOff := i * k
		for j := 0; j < k; j++ {
			bOff := j * m
			s := 0.0
			for c := 0; c < m; c++ {
				s += outGrad[gOff+c] * b[bOff+c]
			}
			aGrad[aOff+j] += s
		}
	}
}

// matmulBackwardB accumulates dB += A^T @ dOut, j-outer/i-inner: for a fixed
// (j, c) cell the i-summation runs in ascending order, skipping zero terms
// of A.
func matmulBackwardB(bGrad, a, outGrad []float64, n, k, m int) {
	for j := 0; j < k; j++ {
		bOff := j * m
		for i := 0; i < n; i++ {
			av := a[i*k+j]
			if av == 0 {
				continue
			}
			gOff := i * m
			for c := 0; c < m; c++ {
				bGrad[bOff+c] += av * outGrad[gOff+c]
			}
		}
	}
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic("tensor: Transpose requires 2-D tensor")
	}
	n, m := a.Shape[0], a.Shape[1]
	data := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			data[j*n+i] = a.Data[i*m+j]
		}
	}
	out := result("transpose", data, []int{m, n}, a)
	if out.requiresGrad {
		out.backward = func() {
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					a.Grad[i*m+j] += out.Grad[j*n+i]
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Nonlinearities and normalization
// ---------------------------------------------------------------------------

// ReLU returns max(0, a) elementwise.
func ReLU(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		if v > 0 {
			data[i] = v
		}
	}
	out := result("relu", data, a.Shape, a)
	if out.requiresGrad {
		out.backward = func() {
			for i := range a.Grad {
				if a.Data[i] > 0 {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Softmax applies a numerically stable softmax along the last dimension of a
// 2-D tensor, row by row.
func Softmax(a *Tensor) *Tensor {
	m := a.Cols()
	n := len(a.Data) / m
	data := make([]float64, len(a.Data))
	for r := 0; r < n; r++ {
		off := r * m
		maxV := math.Inf(-1)
		for c := 0; c < m; c++ {
			if a.Data[off+c] > maxV {
				maxV = a.Data[off+c]
			}
		}
		sum := 0.0
		for c := 0; c < m; c++ {
			e := math.Exp(a.Data[off+c] - maxV)
			data[off+c] = e
			sum += e
		}
		inv := 1 / sum
		for c := 0; c < m; c++ {
			data[off+c] *= inv
		}
	}
	out := result("softmax", data, a.Shape, a)
	if out.requiresGrad {
		out.backward = func() {
			for r := 0; r < n; r++ {
				off := r * m
				dot := 0.0
				for c := 0; c < m; c++ {
					dot += out.Grad[off+c] * data[off+c]
				}
				for c := 0; c < m; c++ {
					a.Grad[off+c] += data[off+c] * (out.Grad[off+c] - dot)
				}
			}
		}
	}
	return out
}

// LayerNorm normalizes each row of x to zero mean and unit variance (with
// epsilon eps), then applies the learnable per-column gain and bias.
func LayerNorm(x, gain, bias *Tensor, eps float64) *Tensor {
	m := x.Cols()
	if gain.NumEl() != m || bias.NumEl() != m {
		panic("tensor: LayerNorm gain/bias length mismatch")
	}
	n := len(x.Data) / m
	data := make([]float64, len(x.Data))
	xhat := make([]float64, len(x.Data))
	invStd := make([]float64, n)
	for r := 0; r < n; r++ {
		off := r * m
		mean := 0.0
		for c := 0; c < m; c++ {
			mean += x.Data[off+c]
		}
		mean /= float64(m)
		v := 0.0
		for c := 0; c < m; c++ {
			d := x.Data[off+c] - mean
			v += d * d
		}
		v /= float64(m)
		is := 1 / math.Sqrt(v+eps)
		invStd[r] = is
		for c := 0; c < m; c++ {
			h := (x.Data[off+c] - mean) * is
			xhat[off+c] = h
			data[off+c] = h*gain.Data[c] + bias.Data[c]
		}
	}
	out := result("layernorm", data, x.Shape, x, gain, bias)
	if out.requiresGrad {
		out.backward = func() {
			for r := 0; r < n; r++ {
				off := r * m
				is := invStd[r]
				// dxhat = dOut * gain
				var sumD, sumDX float64
				dxhat := make([]float64, m)
				for c := 0; c < m; c++ {
					d := out.Grad[off+c] * gain.Data[c]
					dxhat[c] = d
					sumD += d
					sumDX += d * xhat[off+c]
				}
				if x.requiresGrad {
					fm := float64(m)
					for c := 0; c < m; c++ {
						x.Grad[off+c] += is / fm * (fm*dxhat[c] - sumD - xhat[off+c]*sumDX)
					}
				}
				if gain.requiresGrad {
					for c := 0; c < m; c++ {
						gain.Grad[c] += out.Grad[off+c] * xhat[off+c]
					}
				}
				if bias.requiresGrad {
					for c := 0; c < m; c++ {
						bias.Grad[c] += out.Grad[off+c]
					}
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Reductions and shape manipulation
// ---------------------------------------------------------------------------

// SumAll returns the scalar sum of all elements.
func SumAll(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	out := result("sumall", []float64{s}, []int{1}, a)
	if out.requiresGrad {
		out.backward = func() {
			g := out.Grad[0]
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// MeanRows returns the column-wise mean of a 2-D tensor as a 1×m tensor
// (mean pooling over the sequence dimension).
func MeanRows(a *Tensor) *Tensor {
	m := a.Cols()
	n := len(a.Data) / m
	data := make([]float64, m)
	for r := 0; r < n; r++ {
		off := r * m
		for c := 0; c < m; c++ {
			data[c] += a.Data[off+c]
		}
	}
	inv := 1 / float64(n)
	for c := range data {
		data[c] *= inv
	}
	out := result("meanrows", data, []int{1, m}, a)
	if out.requiresGrad {
		out.backward = func() {
			for r := 0; r < n; r++ {
				off := r * m
				for c := 0; c < m; c++ {
					a.Grad[off+c] += out.Grad[c] * inv
				}
			}
		}
	}
	return out
}

// ConcatCols concatenates two tensors with the same number of rows along the
// last dimension.
func ConcatCols(a, b *Tensor) *Tensor {
	na, ma := a.Rows(), a.Cols()
	nb, mb := b.Rows(), b.Cols()
	if na != nb {
		panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", na, nb))
	}
	m := ma + mb
	data := make([]float64, na*m)
	for r := 0; r < na; r++ {
		copy(data[r*m:r*m+ma], a.Data[r*ma:(r+1)*ma])
		copy(data[r*m+ma:(r+1)*m], b.Data[r*mb:(r+1)*mb])
	}
	out := result("concatcols", data, []int{na, m}, a, b)
	if out.requiresGrad {
		out.backward = func() {
			for r := 0; r < na; r++ {
				if a.requiresGrad {
					for c := 0; c < ma; c++ {
						a.Grad[r*ma+c] += out.Grad[r*m+c]
					}
				}
				if b.requiresGrad {
					for c := 0; c < mb; c++ {
						b.Grad[r*mb+c] += out.Grad[r*m+ma+c]
					}
				}
			}
		}
	}
	return out
}

// NarrowCols returns columns [start, start+width) of a 2-D tensor.
func NarrowCols(a *Tensor, start, width int) *Tensor {
	n, m := a.Rows(), a.Cols()
	if start < 0 || start+width > m {
		panic(fmt.Sprintf("tensor: NarrowCols [%d,%d) out of %d columns", start, start+width, m))
	}
	data := make([]float64, n*width)
	for r := 0; r < n; r++ {
		copy(data[r*width:(r+1)*width], a.Data[r*m+start:r*m+start+width])
	}
	out := result("narrowcols", data, []int{n, width}, a)
	if out.requiresGrad {
		out.backward = func() {
			for r := 0; r < n; r++ {
				for c := 0; c < width; c++ {
					a.Grad[r*m+start+c] += out.Grad[r*width+c]
				}
			}
		}
	}
	return out
}

// Reshape returns a view-copy of a with a new shape of equal element count.
func Reshape(a *Tensor, shape ...int) *Tensor {
	s := append([]int(nil), shape...)
	if numel(s) != len(a.Data) {
		panic(fmt.Sprintf("tensor: Reshape %v -> %v element mismatch", a.Shape, s))
	}
	data := make([]float64, len(a.Data))
	copy(data, a.Data)
	out := result("reshape", data, s, a)
	if out.requiresGrad {
		out.backward = func() {
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i]
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Loss primitives
// ---------------------------------------------------------------------------

// Huber returns the mean Huber loss between pred and the constant target,
// optionally weighted per element (weights may be nil for uniform weights).
//
//	HL_delta(y, yhat) = 0.5*(y-yhat)^2          if |y-yhat| <= delta
//	                    delta*(|y-yhat|-delta/2) otherwise
func Huber(pred, target *Tensor, delta float64, weights []float64) *Tensor {
	sameShape("Huber", pred, target)
	n := len(pred.Data)
	var sum, wsum float64
	diffs := make([]float64, n)
	for i := 0; i < n; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		d := pred.Data[i] - target.Data[i]
		diffs[i] = d
		ad := math.Abs(d)
		var l float64
		if ad <= delta {
			l = 0.5 * d * d
		} else {
			l = delta * (ad - 0.5*delta)
		}
		sum += w * l
		wsum += w
	}
	if wsum == 0 {
		wsum = 1
	}
	out := result("huber", []float64{sum / wsum}, []int{1}, pred)
	if out.requiresGrad {
		out.backward = func() {
			g := out.Grad[0] / wsum
			for i := 0; i < n; i++ {
				w := 1.0
				if weights != nil {
					w = weights[i]
				}
				d := diffs[i]
				var dl float64
				if math.Abs(d) <= delta {
					dl = d
				} else if d > 0 {
					dl = delta
				} else {
					dl = -delta
				}
				pred.Grad[i] += g * w * dl
			}
		}
	}
	return out
}

// MAPELoss returns the mean absolute percentage error (as a fraction, not
// percent) between pred and the constant target, optionally weighted.
// Elements whose target is zero are skipped.
func MAPELoss(pred, target *Tensor, weights []float64) *Tensor {
	sameShape("MAPELoss", pred, target)
	n := len(pred.Data)
	var sum, wsum float64
	for i := 0; i < n; i++ {
		if target.Data[i] == 0 {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		sum += w * math.Abs(pred.Data[i]-target.Data[i]) / math.Abs(target.Data[i])
		wsum += w
	}
	if wsum == 0 {
		wsum = 1
	}
	out := result("mape", []float64{sum / wsum}, []int{1}, pred)
	if out.requiresGrad {
		out.backward = func() {
			g := out.Grad[0] / wsum
			for i := 0; i < n; i++ {
				if target.Data[i] == 0 {
					continue
				}
				w := 1.0
				if weights != nil {
					w = weights[i]
				}
				sign := 1.0
				if pred.Data[i] < target.Data[i] {
					sign = -1
				}
				pred.Grad[i] += g * w * sign / math.Abs(target.Data[i])
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Backward pass
// ---------------------------------------------------------------------------

// Backward seeds the gradient of the scalar tensor t with 1 and propagates
// gradients through the tape in reverse topological order. It panics if t is
// not a scalar or does not require gradients.
func Backward(t *Tensor) {
	if len(t.Data) != 1 {
		panic("tensor: Backward requires a scalar tensor")
	}
	if !t.requiresGrad {
		panic("tensor: Backward on tensor without gradient")
	}
	order := topoSort(t)
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

// topoSort returns the tensors reachable from root in topological order
// (parents before children).
func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	seen := make(map[*Tensor]bool)
	var visit func(*Tensor)
	visit = func(t *Tensor) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, p := range t.parents {
			visit(p)
		}
		order = append(order, t)
	}
	visit(root)
	return order
}
