// The packed network: the one compiled implementation of the surrogate.
// Train, every inference entry point and the Fig. 14 attention maps run its
// kernels, on plain []float64 buffers in a workspace arena — no
// *tensor.Tensor, no graph, no per-op allocation.
//
// A network reads the model's one parameter block (model.go, layout): each
// Linear's W packed for gemm.Blocked (and, in a training network, Wᵀ packed
// for the input gradient dX = dY·Wᵀ), and the biases and LayerNorm
// constants in place. newNetwork builds one and repack packs it from the
// block. It has two holders. Train keeps a training network (trainStep) and
// repacks it before every optimizer step; the samples of a minibatch share
// it read-only. The inference snapshot (compiled.go) holds a forward-only
// one, packed once per weight change.
//
// The forward runs in training mode when the caller passes a dropout stream:
// dropout draws its masks and every activation backward needs is kept. With
// no stream it runs in evaluation mode, as the tape does with training off:
// dropout is the identity and each layer's scratch is released as it goes.
// A training sample's gradient lands in its own flat slice, laid out as the
// parameter block.
//
// Forward and backward perform, per value, the same sequence of IEEE-754
// operations as the autograd tape (the nn modules over the same block, then
// tensor.Backward: the reference the tests compare against), so predictions and
// gradients are bit-identical by construction:
//
//   - every product goes through the gemm kernels, whose per-cell
//     ascending-k, skip-on-zero summation is the repo's floating-point
//     contract, and the elementwise steps are written in the tape ops' own
//     expression order.
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
// so zero signs match too. See DESIGN.md, "Layer 3 — the packed network".

package surrogate

import (
	"math"
	"math/rand"

	"deepbat/internal/gemm"
	"deepbat/internal/nn"
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

// relu clamps in place as tensor.ReLU does: anything not > 0 (negative zero
// and NaN included) becomes +0.
func relu(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

// softmaxScaled applies tensor.Scale then tensor.Softmax to the rows × cols
// logits in place.
func softmaxScaled(x []float64, rows, cols int, scale float64) {
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		maxV := math.Inf(-1)
		for c := range row {
			row[c] *= scale
			if row[c] > maxV {
				maxV = row[c]
			}
		}
		sum := 0.0
		for c, v := range row {
			e := math.Exp(v - maxV)
			row[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range row {
			row[c] *= inv
		}
	}
}

// dense is in weight rows of one Linear layer (all of them, except in the
// output head's split). gw locates the first row and gb the bias, in the
// parameter block and in a flat gradient alike. w is the rows packed for the
// forward product and wt their transpose packed for the input gradient (nil
// where none is taken); b is the bias in the block (nil when the rows carry
// none).
type dense struct {
	w, b, wt []float64
	in, out  int
	gw, gb   int
}

// repack packs the weights from the parameter block; scratch holds at least
// in×out floats when wt is set.
func (d *dense) repack(params, scratch []float64) {
	w := params[d.gw : d.gw+d.in*d.out]
	gemm.Pack(d.w, w, d.in, d.out)
	if d.wt != nil {
		transpose(scratch, w, d.in, d.out)
		gemm.Pack(d.wt, scratch, d.out, d.in)
	}
}

// forward sets dst (n×out) = x (n×in) · W + b, as nn.Linear.Forward.
func (d *dense) forward(dst, x []float64, n int) {
	gemm.Blocked(dst, x, d.w, 0, n, d.in, d.out)
	d.addBias(dst, n)
}

func (d *dense) addBias(dst []float64, n int) {
	for r := 0; r < n; r++ {
		row := dst[r*d.out : (r+1)*d.out]
		for c, b := range d.b {
			row[c] += b
		}
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
	if d.b != nil {
		gb := grad[d.gb : d.gb+d.out]
		for r := 0; r < n; r++ {
			for c, g := range dy[r*d.out : (r+1)*d.out] {
				gb[c] += g
			}
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

// lnEps is every LayerNorm's variance epsilon (nn.NewLayerNorm's).
const lnEps = 1e-5

// norm is one LayerNorm: its gain and bias in the parameter block, at gg and
// gb.
type norm struct {
	gain, bias []float64
	gg, gb     int
}

func newNorm(params []float64, l layerNorm) norm {
	return norm{gain: params[l.gain : l.gain+l.dim], bias: params[l.bias : l.bias+l.dim], gg: l.gain, gb: l.bias}
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
		is := 1 / math.Sqrt(v+lnEps)
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

// attn is one multi-head attention block in self-attention form
// (q = k = v = x).
type attn struct {
	q, k, v, o dense
	heads, hd  int
	scale      float64
}

func (a *attn) repack(params, scratch []float64) {
	a.q.repack(params, scratch)
	a.k.repack(params, scratch)
	a.v.repack(params, scratch)
	a.o.repack(params, scratch)
}

// attnActs is what one attention forward keeps for its backward.
type attnActs struct {
	qp, kp, vp []float64 // l×dim projections
	s          []float64 // heads × l×l post-softmax maps
	cat        []float64 // l×dim concatenated head outputs
}

// floats bounds what forward keeps plus its own scratch and, with backward
// set, the larger of that and backward's.
func (a *attn) floats(l int, backward bool) int {
	d, hd := a.o.in, a.hd
	scratch := 6 * l * hd
	if backward {
		scratch = max(scratch, 7*l*d+9*l*hd+3*l*l) // dcat, dq/dk/dv, per-head scratch, then tmp and dense.backward's
	}
	return 4*l*d + a.heads*l*l + scratch
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

// layer is one Transformer encoder layer.
type layer struct {
	att          attn
	ff1, ff2     dense
	norm1, norm2 norm
	p            float64 // dropout probability of Drop1 and Drop2
}

func (e *layer) repack(params, scratch []float64) {
	e.att.repack(params, scratch)
	e.ff1.repack(params, scratch)
	e.ff2.repack(params, scratch)
}

// layerActs is what one encoder layer forward keeps for its backward.
type layerActs struct {
	x            []float64 // input, l×dim
	att          attnActs
	mask1, mask2 []float64 // dropout masks; nil when none was drawn
	xhat1, inv1  []float64
	x1           []float64 // LayerNorm1 output
	h            []float64 // ReLU(x1·W1 + b1), l×ffHidden
	xhat2, inv2  []float64
	out          []float64 // LayerNorm2 output
}

// floats bounds what forward keeps plus its scratch and, with backward set,
// backward's.
func (e *layer) floats(l int, backward bool) int {
	d, f := e.att.o.in, e.ff1.out
	n := 7*l*d + 2*l + l*f + e.att.floats(l, backward)
	if backward {
		n += 4*l*d + l*f + max(e.ff1.backwardFloats(l), e.ff2.backwardFloats(l), d)
	}
	return n
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
// output is a.out. Dropout draws from rng; with rng nil it is the identity.
func (e *layer) forward(ws *workspace, a *layerActs, rng *rand.Rand, x []float64, l int) {
	d := e.att.o.in
	drop := rng != nil && e.p > 0
	a.x = x
	a.x1 = ws.take(l * d)
	e.att.forward(ws, &a.att, a.x1, x, l)
	if drop {
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
	if drop {
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

// network is the packed form of a Model: every weight matrix packed for the
// GEMM kernels, reading biases and LayerNorm constants in place from the
// parameter block.
type network struct {
	dim            int
	params         []float64 // the model's parameter block
	pos            *nn.PositionalEncoding
	embed          dense
	layers         []layer
	post           attn
	feat1, feat2   dense     // the feature branch
	outTop, outBot dense     // the head's first layer split at row dim: the e1 half and the e2 half (which carries the bias)
	out2           dense     // the head's second layer
	scratch        []float64 // repack's buffer for Wᵀ; empty when forward-only
}

// newNetwork sets up the packed form of m; repack fills it. A training
// network also packs every Wᵀ an input gradient needs.
func newNetwork(m *Model, training bool) *network {
	d, largest := m.Cfg.EmbedDim, 0
	block := func(l linear, r0, in int, bias, inputGrad bool) dense {
		b := dense{w: make([]float64, gemm.PackedLen(in, l.out)), in: in, out: l.out, gw: l.w + r0*l.out, gb: l.b}
		if bias {
			b.b = m.params[l.b : l.b+l.out]
		}
		if inputGrad && training {
			b.wt = make([]float64, gemm.PackedLen(l.out, in))
			largest = max(largest, in*l.out)
		}
		return b
	}
	full := func(l linear, inputGrad bool) dense { return block(l, 0, l.in, true, inputGrad) }
	att := func(a attention) attn {
		hd := d / m.Cfg.Heads
		return attn{
			q: full(a.q, true), k: full(a.k, true), v: full(a.v, true), o: full(a.o, true),
			heads: m.Cfg.Heads, hd: hd, scale: 1 / math.Sqrt(float64(hd)),
		}
	}
	lay := &m.lay
	n := &network{
		dim:    d,
		params: m.params,
		pos:    m.pos,
		embed:  full(lay.embed, false),
		layers: make([]layer, len(lay.layers)),
		post:   att(lay.post),
		feat1:  full(lay.feat1, false),
		feat2:  full(lay.feat2, true),
		outTop: block(lay.out1, 0, d, false, true),
		outBot: block(lay.out1, d, d, true, true),
		out2:   full(lay.out2, true),
	}
	for i, l := range lay.layers {
		n.layers[i] = layer{
			att:   att(l.att),
			ff1:   full(l.ff1, true),
			ff2:   full(l.ff2, true),
			norm1: newNorm(m.params, l.norm1),
			norm2: newNorm(m.params, l.norm2),
			p:     m.Cfg.Dropout,
		}
	}
	n.scratch = make([]float64, largest)
	return n
}

// repack packs every weight matrix from the parameter block.
func (n *network) repack() {
	n.embed.repack(n.params, n.scratch)
	for i := range n.layers {
		n.layers[i].repack(n.params, n.scratch)
	}
	n.post.repack(n.params, n.scratch)
	n.feat1.repack(n.params, n.scratch)
	n.feat2.repack(n.params, n.scratch)
	n.outTop.repack(n.params, n.scratch)
	n.outBot.repack(n.params, n.scratch)
	n.out2.repack(n.params, n.scratch)
}

// input embeds the standardized window xs (Eq. 1) and adds the positional
// encoding: the encoder's l×dim input, in ws.
func (n *network) input(ws *workspace, xs []float64) []float64 {
	l := len(xs)
	x := ws.take(l * n.dim)
	n.embed.forward(x, xs, l)
	for i, p := range n.pos.Rows(l) {
		x[i] += p
	}
	return x
}

// encodeFloats is the arena standardizing and encoding a window of length l
// takes in evaluation mode. Layers share one shape and release their
// scratch in turn, so the peak is one layer's.
func (n *network) encodeFloats(l int) int {
	f := l + l*n.dim + 2*n.dim + n.post.floats(1, false)
	if len(n.layers) > 0 {
		f += n.layers[0].floats(l, false)
	}
	return f
}

// encode runs the sequence branch on the standardized window xs: input, the
// encoder layers (Eq. 2), mean pooling and, with postAttention set, the
// post-pooling attention (Eq. 4). It returns the pooled vector ep and the
// encoding e1 (ep itself without the post-attention), both in ws.
//
// With a dropout stream rng it runs in training mode: acts[i] keeps layer
// i's activations and post the post-attention's, for backward. With rng nil
// it runs in evaluation mode: every layer runs on the one record acts[0],
// its output is copied back into the input and its scratch released.
func (n *network) encode(ws *workspace, rng *rand.Rand, acts []layerActs, post *attnActs, xs []float64, postAttention bool) (ep, e1 []float64) {
	l, d := len(xs), n.dim
	x := n.input(ws, xs)
	for i := range n.layers {
		if rng != nil {
			n.layers[i].forward(ws, &acts[i], rng, x, l)
			x = acts[i].out
			continue
		}
		mark := ws.mark()
		n.layers[i].forward(ws, &acts[0], nil, x, l)
		copy(x, acts[0].out)
		ws.release(mark)
	}
	ep = ws.take(d)
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
	if !postAttention {
		return ep, ep
	}
	e1 = ws.take(d)
	n.post.forward(ws, post, e1, ep, 1)
	return ep, e1
}

// headFloats is the arena a head pass over rows rows takes.
func (n *network) headFloats(rows int) int {
	return rows*(n.feat1.out+n.dim+n.outTop.out+n.out2.out) + n.outTop.out
}

// features runs the feature branch (Eq. 5) over rows standardized (M, B, T)
// rows feats: fh gets its hidden ReLU rows and e2 (rows×dim) its output.
func (n *network) features(fh, e2, feats []float64, rows int) {
	n.feat1.forward(fh, feats, rows)
	relu(fh)
	n.feat2.forward(e2, fh, rows)
}

// head runs the feature branch and the output head (Eq. 6) over rows rows,
// each with its own encoding (e1, rows×dim) and standardized features
// (feats, rows×3). It returns, in ws, the feature branch's hidden and output
// rows fh and e2, the head's hidden rows h and the rows×OutputDim scaled
// outputs.
func (n *network) head(ws *workspace, e1, feats []float64, rows int) (fh, e2, h, out []float64) {
	fh, e2 = ws.take(rows*n.feat1.out), ws.take(rows*n.dim)
	n.features(fh, e2, feats, rows)
	h = ws.take(rows * n.outTop.out)
	n.outTop.forward(h, e1, rows)
	return fh, e2, h, n.headTail(ws, h, e2, rows)
}

// headTail finishes Eq. 6 from hidden accumulators h (rows×hidden) that
// already hold each row's e1·W1[:dim] partial: the e2 half of the product
// resumes every cell's sum where the e1 half stopped, so h ends up with
// exactly the bits of [e1|e2]·W1, then takes the bias and the ReLU. It
// returns the scaled outputs, in ws.
func (n *network) headTail(ws *workspace, h, e2 []float64, rows int) []float64 {
	gemm.BlockedAcc(h, e2, n.outBot.w, 0, rows, n.dim, n.outBot.out)
	n.outBot.addBias(h, rows)
	relu(h)
	out := ws.take(rows * n.out2.out)
	n.out2.forward(out, h, rows)
	return out
}

// LossConfig holds the hyperparameters of the training loss (Eqs. 7–9 of
// the paper), a weighted combination of MAPE and Huber loss,
//
//	L(y, ŷ) = Alpha·MAPE(y, ŷ) + (1−Alpha)·Huber_Delta(y, ŷ),
//
// with per-element and per-sample weights that penalize configurations
// whose true latency violates the SLO more heavily, as the paper's loss is
// "intentionally defined to penalize more for those configurations that
// violate the SLO". The paper uses Alpha = 0.05 and Delta = 1.
type LossConfig struct {
	// Alpha weighs MAPE against Huber in the combination.
	Alpha float64
	// Delta is the Huber transition point.
	Delta float64
	// SLOPenalty multiplies the weight of SLO-violating outputs and samples.
	// 1 disables the penalty.
	SLOPenalty float64
}

// DefaultLossConfig returns the paper's loss configuration.
func DefaultLossConfig() LossConfig {
	return LossConfig{Alpha: 0.05, Delta: 1, SLOPenalty: 4}
}

// violates reports whether a target vector [cost, p_1, ..., p_k] belongs to
// an SLO-violating configuration — any latency percentile above the SLO.
func violates(target []float64, slo float64) bool {
	for i := 1; i < len(target); i++ {
		if target[i] > slo {
			return true
		}
	}
	return false
}

// sampleWeight returns the loss multiplier of one training sample: the
// SLOPenalty for a configuration whose true latency violates the SLO, 1
// otherwise. It scales the sample's whole combined loss; the per-element
// weights are normalized by their sum and so cannot express a sample-level
// penalty.
func sampleWeight(target []float64, slo float64, cfg LossConfig) float64 {
	if violates(target, slo) && cfg.SLOPenalty > 0 {
		return cfg.SLOPenalty
	}
	return 1
}

// sloWeightsInto writes one sample's per-element weights into dst (the
// length of target) and returns it: latency entries above the SLO get the
// penalty weight, sharpening the fit where the constraint binds; the cost
// element and feasible latency entries keep weight 1.
func sloWeightsInto(dst, target []float64, slo float64, cfg LossConfig) []float64 {
	for i := range dst {
		dst[i] = 1
		if i >= 1 && target[i] > slo && cfg.SLOPenalty > 0 {
			dst[i] = cfg.SLOPenalty
		}
	}
	return dst
}

// lossTerms is one sample's combined loss on plain floats: tensor.MAPELoss
// and tensor.Huber with their weight sums, combined as Alpha·MAPE +
// (1−Alpha)·Huber and scaled by the sample weight w, all in the tape ops'
// expression order.
type lossTerms struct {
	mape, huber   float64
	mapeW, huberW float64
	w             float64
	value         float64
}

// combinedLoss evaluates the combined loss of pred against the scaled
// target with per-element weights wts and sample weight w.
func combinedLoss(pred, target, wts []float64, cfg LossConfig, w float64) lossTerms {
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
	//lint:allow floatcompare sampleWeight returns the literal 1.0 for unpenalized samples; the tape skips the Scale then
	if w != 1 {
		t.value *= w
	}
	return t
}

// backward sets dpred to the gradient of value×scale with respect to pred:
// the Scale nodes, then Add, then Huber's closure before MAPELoss's (the
// tape's reverse topological order), then Reshape.
func (t *lossTerms) backward(dpred, pred, target, wts []float64, cfg LossConfig, scale float64) {
	g := plus0(1 * scale)
	//lint:allow floatcompare sampleWeight returns the literal 1.0 for unpenalized samples; the tape skips the Scale then
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

// trainStep is Train's training network. It is built once per Train call;
// repack refreshes it from the parameter block before every optimizer step,
// after which the step is read-only and shared by every worker.
type trainStep struct {
	*network
	m *Model
}

func newTrainStep(m *Model) *trainStep {
	return &trainStep{network: newNetwork(m, true), m: m}
}

// floats bounds the arena one step over a window of length l takes.
func (st *trainStep) floats(l int) int {
	d, f, hid, out := st.dim, st.feat1.out, st.outTop.out, st.out2.out
	n := l + 3*l*d // window, embedding, and the gradient flowing between layers
	for i := range st.layers {
		n += st.layers[i].floats(l, true)
	}
	n += 2*d + st.post.floats(1, true) // pooled vector and e1
	n += 3 + f + d + hid + out         // feature branch and head
	n += 3 * out                       // target, weights, prediction gradient
	n += hid + 2*d + f + d             // head and feature-branch gradients
	// The largest scratch one backward takes and releases. The embedding's
	// fits inside the encoder layers' budgets, but a model without layers
	// still needs it here.
	n += max(st.out2.backwardFloats(1), st.outBot.backwardFloats(1), st.feat2.backwardFloats(1), st.feat1.backwardFloats(1), st.embed.backwardFloats(l))
	return n
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
// grad (laid out as the parameter block). The dropout stream must already be seeded when the
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
	postAttention := !m.Cfg.DisablePostAttention
	ep, e1 := st.encode(ws, w.rng, w.acts, &w.post, xs, postAttention)
	feats := ws.take(3)
	m.normalizeFeaturesRow(feats, s.Config)
	fh, e2, h, pred := st.head(ws, e1, feats, 1)

	// Loss.
	out := len(pred)
	target, wts := ws.take(out), ws.take(out)
	m.scaleTargetInto(target, s.Target)
	sloWeightsInto(wts, s.Target, cfg.SLO, cfg.Loss)
	terms := combinedLoss(pred, target, wts, cfg.Loss, sampleWeight(s.Target, cfg.SLO, cfg.Loss))

	// Backward.
	dpred := ws.take(out)
	terms.backward(dpred, pred, target, wts, cfg.Loss, scale)
	dh := ws.take(st.outTop.out)
	st.out2.backward(ws, grad, h, dpred, dh, 1)
	reluBackward(dh, h)
	de1, de2 := ws.take(d), ws.take(d)
	st.outBot.backward(ws, grad, e2, dh, de2, 1)
	st.outTop.backward(ws, grad, e1, dh, de1, 1)
	dfh := ws.take(st.feat1.out)
	st.feat2.backward(ws, grad, fh, de2, dfh, 1)
	reluBackward(dfh, fh)
	st.feat1.backward(ws, grad, feats, dfh, nil, 1)
	dep := de1
	if postAttention {
		dep = ws.take(d)
		for c := range dep {
			dep[c] = 0
		}
		st.post.backward(ws, grad, &w.post, ep, de1, dep, 1)
	}
	inv := 1 / float64(l)
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
