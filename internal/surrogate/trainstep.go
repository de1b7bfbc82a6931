// The compiled training step: what Train runs per sample. It computes the
// forward pass, the combined loss and every parameter gradient on plain
// []float64 buffers — no *tensor.Tensor, no graph, no per-op allocation.
//
// The weights are packed once per optimizer step into buffers the Train call
// owns (every Linear in both layouts: W for the forward product, Wᵀ for the
// input gradient dX = dY·Wᵀ) and shared read-only by every sample of the
// minibatch. Activations and gradients live in a per-worker arena reserved
// once per Train call; each sample's gradient lands in its own flat slice,
// laid out in Params() order.
//
// The step performs, per value, the same sequence of IEEE-754 operations as
// the tape (Forward → sampleLoss → tensor.Backward, which stays the
// reference the tests compare against), so gradients are bit-identical by
// construction:
//
//   - matmulBackwardA (dX += dY·Wᵀ, a per-cell sum from +0 in ascending
//     order) is gemm.Blocked over the packed Wᵀ; skipping a zero dY term
//     cannot change a sum that starts at +0, for finite weights.
//   - matmulBackwardB (dW += Aᵀ·dY, ascending rows, skipping zero A terms) is
//     gemm.BlockedAcc over Aᵀ and the packed dY.
//   - every elementwise backward is written in its tape closure's expression
//     order, and a gradient the tape accumulates into a fresh zero buffer is
//     stored as +0 + v (plus0), which turns a -0 into +0 exactly as the tape
//     does.
//   - a tensor the tape differentiates through several consumers receives
//     their contributions in reverse topological order: an encoder layer's
//     input takes its residual first, then its V, K and Q projections; the
//     pooled vector fed to the post-pooling attention takes V, K, Q.
//
// Dropout draws its masks from the per-sample stream in the tape's order
// (layer by layer, Drop1 then Drop2, row-major) and multiplies by the mask,
// so zero signs match too. See DESIGN.md, "Compiled training".

package surrogate

import (
	"math"
	"math/rand"

	"deepbat/internal/gemm"
	"deepbat/internal/loss"
	"deepbat/internal/nn"
	"deepbat/internal/tensor"
)

// plus0 returns +0 + v: what the tape stores when it accumulates a single
// contribution v into a fresh zero gradient (v itself, except that -0
// becomes +0).
func plus0(v float64) float64 {
	z := 0.0
	return z + v
}

// transpose writes the c×r transpose of the r×c matrix src into dst.
func transpose(dst, src []float64, r, c int) {
	for i := 0; i < r; i++ {
		for j, v := range src[i*c : (i+1)*c] {
			dst[j*r+i] = v
		}
	}
}

// narrow copies columns [c0, c0+w) of the rows×cols matrix src into dst
// (rows×w), as tensor.NarrowCols.
func narrow(dst, src []float64, rows, cols, c0, w int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*w:(r+1)*w], src[r*cols+c0:r*cols+c0+w])
	}
}

// narrowT writes the w×rows transpose of columns [c0, c0+w) of src.
func narrowT(dst, src []float64, rows, cols, c0, w int) {
	for r := 0; r < rows; r++ {
		for t, v := range src[r*cols+c0 : r*cols+c0+w] {
			dst[t*rows+r] = v
		}
	}
}

// widen copies the rows×w matrix src into columns [c0, c0+w) of dst.
func widen(dst, src []float64, rows, cols, c0, w int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*cols+c0:r*cols+c0+w], src[r*w:(r+1)*w])
	}
}

// dense is one nn.Linear set up for the training step: the embedded linear
// holds W packed for the forward and aliases the live bias; wt is Wᵀ packed
// for the input gradient (nil where the input needs none). gw and gb locate
// the W and B gradients in a flat per-sample gradient.
type dense struct {
	linear
	src    *nn.Linear
	wt     []float64
	gw, gb int
}

func newDense(l *nn.Linear, off map[*tensor.Tensor]int, inputGrad bool) dense {
	in, out := l.W.Rows(), l.W.Cols()
	d := dense{
		linear: linear{w: make([]float64, gemm.PackedLen(in, out)), b: l.B.Data, in: in, out: out},
		src:    l,
		gw:     off[l.W],
		gb:     off[l.B],
	}
	if inputGrad {
		d.wt = make([]float64, gemm.PackedLen(out, in))
	}
	return d
}

// repack packs the live weights; scratch holds at least in×out floats.
func (d *dense) repack(scratch []float64) {
	gemm.Pack(d.w, d.src.W.Data, d.in, d.out)
	if d.wt != nil {
		transpose(scratch, d.src.W.Data, d.in, d.out)
		gemm.Pack(d.wt, scratch, d.out, d.in)
	}
}

// backwardFloats is the arena backward takes for n rows.
func (d *dense) backwardFloats(n int) int { return n * (d.in + d.out) }

// backward is the tape's AddRow and MatMul closures for y = x·W + b over n
// rows: given dy, it adds the W and B gradients to grad and, when dx is
// non-nil, sets dx = dy·Wᵀ (a fresh gradient; callers that accumulate add it
// themselves).
func (d *dense) backward(ws *workspace, grad, x, dy, dx []float64, n int) {
	mark := ws.mark()
	xt, pdy := ws.take(d.in*n), ws.take(n*d.out)
	transpose(xt, x, n, d.in)
	gemm.Pack(pdy, dy, n, d.out)
	gemm.BlockedAcc(grad[d.gw:d.gw+d.in*d.out], xt, pdy, 0, d.in, n, d.out)
	gb := grad[d.gb : d.gb+d.out]
	for r := 0; r < n; r++ {
		for c, g := range dy[r*d.out : (r+1)*d.out] {
			gb[c] += g
		}
	}
	if dx != nil {
		gemm.Blocked(dx, dy, d.wt, 0, n, d.out, d.in)
	}
	ws.release(mark)
}

// reluBackward zeroes dy wherever the ReLU output h is not positive. dy is a
// GEMM result (never -0), so the kept entries already equal the tape's +0 + dy.
func reluBackward(dy, h []float64) {
	for i, v := range h {
		if !(v > 0) {
			dy[i] = 0
		}
	}
}

// norm is one nn.LayerNorm, reading the live gain and bias.
type norm struct {
	gain, bias []float64
	eps        float64
	gg, gb     int
}

func newNorm(n *nn.LayerNorm, off map[*tensor.Tensor]int) norm {
	return norm{gain: n.Gain.Data, bias: n.Bias.Data, eps: n.Eps, gg: off[n.Gain], gb: off[n.Bias]}
}

// forward sets out = LayerNorm(x) row by row (in place when out is x) and
// keeps x̂ and the per-row inverse standard deviations for backward.
func (n *norm) forward(out, xhat, invStd, x []float64, rows int) {
	m := len(n.gain)
	for r := 0; r < rows; r++ {
		row := x[r*m : (r+1)*m]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(m)
		v := 0.0
		for _, xv := range row {
			d := xv - mean
			v += d * d
		}
		v /= float64(m)
		is := 1 / math.Sqrt(v+n.eps)
		invStd[r] = is
		for c, xv := range row {
			h := (xv - mean) * is
			xhat[r*m+c] = h
			out[r*m+c] = h*n.gain[c] + n.bias[c]
		}
	}
}

// backward is tensor.LayerNorm's closure: it sets dx (fresh) from dy and adds
// the gain and bias gradients to grad, row by row.
func (n *norm) backward(ws *workspace, grad, dy, xhat, invStd, dx []float64, rows int) {
	m := len(n.gain)
	mark := ws.mark()
	dxhat := ws.take(m)
	gg, gb := grad[n.gg:n.gg+m], grad[n.gb:n.gb+m]
	fm := float64(m)
	for r := 0; r < rows; r++ {
		off := r * m
		is := invStd[r]
		var sumD, sumDX float64
		for c := 0; c < m; c++ {
			d := dy[off+c] * n.gain[c]
			dxhat[c] = d
			sumD += d
			sumDX += d * xhat[off+c]
		}
		for c := 0; c < m; c++ {
			dx[off+c] = plus0(is / fm * (fm*dxhat[c] - sumD - xhat[off+c]*sumDX))
		}
		for c := 0; c < m; c++ {
			gg[c] += dy[off+c] * xhat[off+c]
		}
		for c := 0; c < m; c++ {
			gb[c] += dy[off+c]
		}
	}
	ws.release(mark)
}

// attn is one nn.MultiHeadAttention in self-attention form (q = k = v = x).
type attn struct {
	q, k, v, o dense
	heads, hd  int
	scale      float64
}

func newAttn(a *nn.MultiHeadAttention, off map[*tensor.Tensor]int) attn {
	hd := a.Dim / a.Heads
	return attn{
		q: newDense(a.Wq, off, true), k: newDense(a.Wk, off, true),
		v: newDense(a.Wv, off, true), o: newDense(a.Wo, off, true),
		heads: a.Heads, hd: hd, scale: 1 / math.Sqrt(float64(hd)),
	}
}

func (a *attn) repack(scratch []float64) {
	a.q.repack(scratch)
	a.k.repack(scratch)
	a.v.repack(scratch)
	a.o.repack(scratch)
}

// attnActs is what one attention forward keeps for its backward.
type attnActs struct {
	qp, kp, vp []float64 // l×dim projections
	s          []float64 // heads × l×l post-softmax maps
	cat        []float64 // l×dim concatenated head outputs
}

// floats bounds what forward keeps plus the larger of its own and
// backward's scratch.
func (a *attn) floats(l int) int {
	d, hd := a.o.in, a.hd
	kept := 4*l*d + a.heads*l*l
	fwd := 6 * l * hd
	bwd := 7*l*d + 9*l*hd + 3*l*l // dcat, dq/dk/dv, per-head scratch, then tmp and dense.backward's
	return kept + max(fwd, bwd)
}

// forward sets dst (l×dim) to the self-attention of x (l×dim), keeping its
// activations in acts.
func (a *attn) forward(ws *workspace, acts *attnActs, dst, x []float64, l int) {
	d, hd := a.o.in, a.hd
	acts.qp, acts.kp, acts.vp = ws.take(l*d), ws.take(l*d), ws.take(l*d)
	acts.s, acts.cat = ws.take(a.heads*l*l), ws.take(l*d)
	a.q.forward(acts.qp, x, l)
	a.k.forward(acts.kp, x, l)
	a.v.forward(acts.vp, x, l)
	mark := ws.mark()
	qh, kt, pk := ws.take(l*hd), ws.take(hd*l), ws.take(hd*l)
	vh, pv, av := ws.take(l*hd), ws.take(l*hd), ws.take(l*hd)
	for h := 0; h < a.heads; h++ {
		s := acts.s[h*l*l : (h+1)*l*l]
		narrow(qh, acts.qp, l, d, h*hd, hd)
		narrowT(kt, acts.kp, l, d, h*hd, hd)
		gemm.Pack(pk, kt, hd, l)
		gemm.Blocked(s, qh, pk, 0, l, hd, l)
		softmaxScaled(s, l, l, a.scale)
		narrow(vh, acts.vp, l, d, h*hd, hd)
		gemm.Pack(pv, vh, l, hd)
		gemm.Blocked(av, s, pv, 0, l, l, hd)
		widen(acts.cat, av, l, d, h*hd, hd)
	}
	ws.release(mark)
	a.o.forward(dst, acts.cat, l)
}

// backward adds the block's parameter gradients to grad and, given dy (the
// gradient of its output), adds the input gradients of the V, K and Q
// projections to dx in that order — the tape's reverse topological order.
func (a *attn) backward(ws *workspace, grad []float64, acts *attnActs, x, dy, dx []float64, l int) {
	d, hd := a.o.in, a.hd
	mark := ws.mark()
	dcat := ws.take(l * d)
	a.o.backward(ws, grad, acts.cat, dy, dcat, l)
	dq, dk, dv := ws.take(l*d), ws.take(l*d), ws.take(l*d)
	heads := ws.mark()
	do, t, pt := ws.take(l*hd), ws.take(hd*l), ws.take(hd*l)
	ds, st, pd := ws.take(l*l), ws.take(l*l), ws.take(l*l)
	g, pk, dkt := ws.take(l*hd), ws.take(l*hd), ws.take(hd*l)
	pdo := ws.take(l * hd)
	for h := 0; h < a.heads; h++ {
		s := acts.s[h*l*l : (h+1)*l*l]
		narrow(do, dcat, l, d, h*hd, hd)
		// MatMul(S, V_h): dS = dO·V_hᵀ, dV_h = Sᵀ·dO.
		narrowT(t, acts.vp, l, d, h*hd, hd)
		gemm.Pack(pt, t, hd, l)
		gemm.Blocked(ds, do, pt, 0, l, hd, l)
		transpose(st, s, l, l)
		gemm.Pack(pdo, do, l, hd)
		gemm.Blocked(g, st, pdo, 0, l, l, hd)
		widen(dv, g, l, d, h*hd, hd)
		// Softmax, then Scale: each a fresh gradient.
		for r := 0; r < l; r++ {
			row, y := ds[r*l:(r+1)*l], s[r*l:(r+1)*l]
			dot := 0.0
			for c, gv := range row {
				dot += gv * y[c]
			}
			for c, gv := range row {
				row[c] = plus0(plus0(y[c]*(gv-dot)) * a.scale)
			}
		}
		// MatMul(Q_h, K_hᵀ): dQ_h = dRaw·K_h, dK_hᵀ = Q_hᵀ·dRaw.
		narrow(t[:l*hd], acts.kp, l, d, h*hd, hd)
		gemm.Pack(pk, t[:l*hd], l, hd)
		gemm.Blocked(g, ds, pk, 0, l, l, hd)
		widen(dq, g, l, d, h*hd, hd)
		narrowT(t, acts.qp, l, d, h*hd, hd)
		gemm.Pack(pd, ds, l, l)
		gemm.Blocked(dkt, t, pd, 0, hd, l, l)
		for i := 0; i < l; i++ {
			for c := 0; c < hd; c++ {
				dk[i*d+h*hd+c] = dkt[c*l+i]
			}
		}
	}
	ws.release(heads)
	tmp := ws.take(l * d)
	for _, p := range [...]struct {
		lin *dense
		dp  []float64
	}{{&a.v, dv}, {&a.k, dk}, {&a.q, dq}} {
		p.lin.backward(ws, grad, x, p.dp, tmp, l)
		for i, v := range tmp {
			dx[i] += v
		}
	}
	ws.release(mark)
}

// layer is one nn.EncoderLayer in training mode.
type layer struct {
	att          attn
	ff1, ff2     dense
	norm1, norm2 norm
	p            float64 // dropout probability of Drop1 and Drop2
}

// layerActs is what one encoder layer forward keeps for its backward.
type layerActs struct {
	x            []float64 // input, l×dim
	att          attnActs
	mask1, mask2 []float64 // dropout masks; nil when p is 0
	xhat1, inv1  []float64
	x1           []float64 // LayerNorm1 output
	h            []float64 // ReLU(x1·W1 + b1), l×ffHidden
	xhat2, inv2  []float64
	out          []float64 // LayerNorm2 output
}

func (e *layer) floats(l int) int {
	d, f := e.att.o.in, e.ff1.out
	kept := 7*l*d + 2*l + l*f
	bwd := 4*l*d + l*f + max(e.ff1.backwardFloats(l), e.ff2.backwardFloats(l), d)
	return kept + e.att.floats(l) + bwd
}

// dropout draws a mask into mask as nn.Dropout does (keep with probability
// 1-p, scaled by 1/(1-p), +0 otherwise) and sets x = base + x*mask.
func dropout(rng *rand.Rand, p float64, mask, x, base []float64) {
	keep := 1 - p
	for i := range mask {
		mask[i] = 0
		if rng.Float64() < keep {
			mask[i] = 1 / keep
		}
	}
	for i, m := range mask {
		x[i] = base[i] + x[i]*m
	}
}

// forward runs the layer on x (l×dim), keeping its activations in a; the
// output is a.out.
func (e *layer) forward(ws *workspace, a *layerActs, rng *rand.Rand, x []float64, l int) {
	d := e.att.o.in
	a.x = x
	a.x1 = ws.take(l * d)
	e.att.forward(ws, &a.att, a.x1, x, l)
	if e.p > 0 {
		a.mask1 = ws.take(l * d)
		dropout(rng, e.p, a.mask1, a.x1, x)
	} else {
		for i, v := range x {
			a.x1[i] = v + a.x1[i]
		}
	}
	a.xhat1, a.inv1 = ws.take(l*d), ws.take(l)
	e.norm1.forward(a.x1, a.xhat1, a.inv1, a.x1, l)
	a.h = ws.take(l * e.ff1.out)
	e.ff1.forward(a.h, a.x1, l)
	relu(a.h)
	a.out = ws.take(l * d)
	e.ff2.forward(a.out, a.h, l)
	if e.p > 0 {
		a.mask2 = ws.take(l * d)
		dropout(rng, e.p, a.mask2, a.out, a.x1)
	} else {
		for i, v := range a.x1 {
			a.out[i] = v + a.out[i]
		}
	}
	a.xhat2, a.inv2 = ws.take(l*d), ws.take(l)
	e.norm2.forward(a.out, a.xhat2, a.inv2, a.out, l)
}

// backward adds the layer's parameter gradients to grad and sets dx (l×dim)
// to the gradient of its input, given dy, the gradient of its output.
func (e *layer) backward(ws *workspace, grad []float64, a *layerActs, dy, dx []float64, l int) {
	d := e.att.o.in
	mark := ws.mark()
	da := ws.take(l * d)
	e.norm2.backward(ws, grad, dy, a.xhat2, a.inv2, da, l)
	// Add(x1, Drop2(ff)): x1 takes the residual first, then FF1's input
	// gradient.
	dx1 := ws.take(l * d)
	copy(dx1, da)
	if a.mask2 != nil {
		for i, m := range a.mask2 {
			da[i] = plus0(da[i] * m)
		}
	}
	dh := ws.take(l * e.ff1.out)
	e.ff2.backward(ws, grad, a.h, da, dh, l)
	reluBackward(dh, a.h)
	tmp := ws.take(l * d)
	e.ff1.backward(ws, grad, a.x1, dh, tmp, l)
	for i, v := range tmp {
		dx1[i] += v
	}
	e.norm1.backward(ws, grad, dx1, a.xhat1, a.inv1, da, l)
	// Add(x, Drop1(att)): x takes the residual first, then the attention's
	// V, K and Q input gradients.
	copy(dx, da)
	if a.mask1 != nil {
		for i, m := range a.mask1 {
			da[i] = plus0(da[i] * m)
		}
	}
	e.att.backward(ws, grad, &a.att, a.x, da, dx, l)
	ws.release(mark)
}

// lossTerms is one sample's combined loss on plain floats: tensor.MAPELoss
// and tensor.Huber with their weight sums, combined as loss.Combined and
// scaled by the sample weight w, all in the tape ops' expression order.
type lossTerms struct {
	mape, huber   float64
	mapeW, huberW float64
	w             float64
	value         float64
}

// combinedLoss evaluates the combined loss of pred against the scaled
// target with per-element weights wts and sample weight w.
func combinedLoss(pred, target, wts []float64, cfg loss.Config, w float64) lossTerms {
	var t lossTerms
	for i, p := range pred {
		if target[i] == 0 {
			continue
		}
		t.mape += wts[i] * math.Abs(p-target[i]) / math.Abs(target[i])
		t.mapeW += wts[i]
	}
	if t.mapeW == 0 {
		t.mapeW = 1
	}
	for i, p := range pred {
		d := p - target[i]
		ad := math.Abs(d)
		var l float64
		if ad <= cfg.Delta {
			l = 0.5 * d * d
		} else {
			l = cfg.Delta * (ad - 0.5*cfg.Delta)
		}
		t.huber += wts[i] * l
		t.huberW += wts[i]
	}
	if t.huberW == 0 {
		t.huberW = 1
	}
	t.mape /= t.mapeW
	t.huber /= t.huberW
	t.w = w
	t.value = t.mape*cfg.Alpha + t.huber*(1-cfg.Alpha)
	//lint:allow floatcompare SampleWeight returns the literal 1.0 for unpenalized samples; the tape skips the Scale then
	if w != 1 {
		t.value *= w
	}
	return t
}

// backward sets dpred to the gradient of value×scale with respect to pred:
// the Scale nodes, then Add, then Huber's closure before MAPELoss's (the
// tape's reverse topological order), then Reshape.
func (t *lossTerms) backward(dpred, pred, target, wts []float64, cfg loss.Config, scale float64) {
	g := plus0(1 * scale)
	//lint:allow floatcompare SampleWeight returns the literal 1.0 for unpenalized samples; the tape skips the Scale then
	if t.w != 1 {
		g = plus0(g * t.w)
	}
	g = plus0(g)
	dh := plus0(g*(1-cfg.Alpha)) / t.huberW
	dm := plus0(g*cfg.Alpha) / t.mapeW
	for i, p := range pred {
		d := p - target[i]
		var dl float64
		if math.Abs(d) <= cfg.Delta {
			dl = d
		} else if d > 0 {
			dl = cfg.Delta
		} else {
			dl = -cfg.Delta
		}
		dpred[i] = plus0(dh * wts[i] * dl)
	}
	for i, p := range pred {
		if target[i] == 0 {
			continue
		}
		sign := 1.0
		if p < target[i] {
			sign = -1
		}
		dpred[i] += dm * wts[i] * sign / math.Abs(target[i])
	}
}

// trainStep is the model set up for compiled training: every layer with its
// packed weights, and each parameter's offset in a flat gradient. It is
// built once per Train call; repack refreshes the packed weights from the
// live parameters before every optimizer step, after which the step is
// read-only and shared by every worker.
type trainStep struct {
	m       *Model
	params  []*tensor.Tensor
	size    int // flat gradient length
	scratch []float64

	dim                    int
	embed                  dense
	layers                 []layer
	post                   attn
	feat1, feat2, out1, o2 dense
}

func newTrainStep(m *Model) *trainStep {
	st := &trainStep{m: m, params: m.Params(), dim: m.Cfg.EmbedDim}
	off := make(map[*tensor.Tensor]int, len(st.params))
	largest := 0
	for _, p := range st.params {
		off[p] = st.size
		st.size += len(p.Data)
		largest = max(largest, len(p.Data))
	}
	st.scratch = make([]float64, largest)
	st.embed = newDense(m.embed, off, false)
	for _, l := range m.enc.Layers {
		st.layers = append(st.layers, layer{
			att:   newAttn(l.Att, off),
			ff1:   newDense(l.FF.L1, off, true),
			ff2:   newDense(l.FF.L2, off, true),
			norm1: newNorm(l.Norm1, off),
			norm2: newNorm(l.Norm2, off),
			p:     l.Drop1.P,
		})
	}
	st.post = newAttn(m.postAtt, off)
	st.feat1 = newDense(m.featFF.L1, off, false)
	st.feat2 = newDense(m.featFF.L2, off, true)
	st.out1 = newDense(m.outFF.L1, off, true)
	st.o2 = newDense(m.outFF.L2, off, true)
	return st
}

// repack packs every weight matrix from the live parameters.
func (st *trainStep) repack() {
	st.embed.repack(st.scratch)
	for i := range st.layers {
		e := &st.layers[i]
		e.att.repack(st.scratch)
		e.ff1.repack(st.scratch)
		e.ff2.repack(st.scratch)
	}
	st.post.repack(st.scratch)
	st.feat1.repack(st.scratch)
	st.feat2.repack(st.scratch)
	st.out1.repack(st.scratch)
	st.o2.repack(st.scratch)
}

// floats bounds the arena one step over a window of length l takes.
func (st *trainStep) floats(l int) int {
	d, f1, f2, out := st.dim, st.feat1.out, st.out1.out, st.o2.out
	n := l + 3*l*d // window, embedding, and the gradient flowing between layers
	for i := range st.layers {
		n += st.layers[i].floats(l)
	}
	n += 2*d + st.post.floats(1) // pooled vector and e1
	n += 3 + f1 + 2*d + f2 + out // feature branch and head
	n += 3 * out                 // target, weights, prediction gradient
	n += f2 + 2*d + f1 + d       // head and feature-branch gradients
	n += max(st.o2.backwardFloats(1), st.out1.backwardFloats(1), st.feat2.backwardFloats(1), st.feat1.backwardFloats(1))
	return n
}

// addInto adds the flat gradient g into the parameters' Grad, in Params()
// order.
func (st *trainStep) addInto(g []float64) {
	off := 0
	for _, p := range st.params {
		for j := range p.Grad {
			p.Grad[j] += g[off+j]
		}
		off += len(p.Grad)
	}
}

// stepWorker is one worker's private state: its arena, dropout stream and
// activation records.
type stepWorker struct {
	ws   workspace
	rng  *rand.Rand
	acts []layerActs
	post attnActs
}

func (st *trainStep) newWorker(maxLen int) *stepWorker {
	return &stepWorker{
		ws:   workspace{buf: make([]float64, st.floats(maxLen))},
		rng:  rand.New(rand.NewSource(0)),
		acts: make([]layerActs, len(st.layers)),
	}
}

// run computes one sample's loss, scaled by scale, and adds its gradient to
// grad (length st.size). The dropout stream must already be seeded when the
// model has dropout.
func (st *trainStep) run(w *stepWorker, s Sample, cfg TrainConfig, scale float64, grad []float64) float64 {
	m, ws, d := st.m, &w.ws, st.dim
	l := len(s.Seq)
	if l == 0 {
		panic("surrogate: empty sequence")
	}
	ws.release(0)

	// Forward.
	xs := m.normalizeSeqInto(ws.take(l), s.Seq)
	x := ws.take(l * d)
	st.embed.forward(x, xs, l)
	for i, p := range m.pos.Rows(l) {
		x[i] += p
	}
	for i := range st.layers {
		st.layers[i].forward(ws, &w.acts[i], w.rng, x, l)
		x = w.acts[i].out
	}
	ep := ws.take(d)
	for c := range ep {
		ep[c] = 0
	}
	for r := 0; r < l; r++ {
		for c, v := range x[r*d : (r+1)*d] {
			ep[c] += v
		}
	}
	inv := 1 / float64(l)
	for c := range ep {
		ep[c] *= inv
	}
	e1 := ep
	if !m.Cfg.DisablePostAttention {
		e1 = ws.take(d)
		st.post.forward(ws, &w.post, e1, ep, 1)
	}
	feats := ws.take(3)
	m.normalizeFeaturesRow(feats, s.Config)
	fh := ws.take(st.feat1.out)
	st.feat1.forward(fh, feats, 1)
	relu(fh)
	cat := ws.take(2 * d)
	copy(cat[:d], e1)
	st.feat2.forward(cat[d:], fh, 1)
	oh := ws.take(st.out1.out)
	st.out1.forward(oh, cat, 1)
	relu(oh)
	pred := ws.take(st.o2.out)
	st.o2.forward(pred, oh, 1)

	// Loss.
	out := len(pred)
	target, wts := ws.take(out), ws.take(out)
	m.scaleTargetInto(target, s.Target)
	loss.SLOWeightsInto(wts, s.Target, cfg.SLO, cfg.Loss)
	terms := combinedLoss(pred, target, wts, cfg.Loss, loss.SampleWeight(s.Target, cfg.SLO, cfg.Loss))

	// Backward.
	dpred := ws.take(out)
	terms.backward(dpred, pred, target, wts, cfg.Loss, scale)
	doh := ws.take(st.out1.out)
	st.o2.backward(ws, grad, oh, dpred, doh, 1)
	reluBackward(doh, oh)
	dcat := ws.take(2 * d)
	st.out1.backward(ws, grad, cat, doh, dcat, 1)
	dfh := ws.take(st.feat1.out)
	st.feat2.backward(ws, grad, fh, dcat[d:], dfh, 1)
	reluBackward(dfh, fh)
	st.feat1.backward(ws, grad, feats, dfh, nil, 1)
	dep := dcat[:d]
	if !m.Cfg.DisablePostAttention {
		dep = ws.take(d)
		for c := range dep {
			dep[c] = 0
		}
		st.post.backward(ws, grad, &w.post, ep, dcat[:d], dep, 1)
	}
	dx := ws.take(l * d)
	for r := 0; r < l; r++ {
		for c, g := range dep {
			dx[r*d+c] = plus0(g * inv)
		}
	}
	din := ws.take(l * d)
	for i := len(st.layers) - 1; i >= 0; i-- {
		st.layers[i].backward(ws, grad, &w.acts[i], dx, din, l)
		dx, din = din, dx
	}
	st.embed.backward(ws, grad, xs, dx, nil, l)
	return terms.value * scale
}
