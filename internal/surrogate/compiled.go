// The compiled inference path: everything Predict, PredictGrid and the
// batched evaluation passes execute. A compiled value is an immutable
// snapshot of the model — every Linear pre-packed for gemm.Blocked, the
// LayerNorm constants, and the feature-branch rows of the grid last swept —
// and its kernels run in place on a pooled arena of plain []float64 buffers:
// no *tensor.Tensor, no tensor.NoGrad, no goroutines, no per-op allocation.
//
// Every kernel performs, per output value, the same sequence of IEEE-754
// operations as the tape forward in model.go (which stays the training path
// and the reference the tests compare against), so results are bit-identical
// by construction: matrix products go through the gemm kernels, whose
// per-cell ascending-k, skip-on-zero summation is the repo's floating-point
// contract, and the elementwise steps are written in the tape ops' own
// expression order. See DESIGN.md, "Batched inference & kernel blocking".

package surrogate

import (
	"math"
	"sync"

	"deepbat/internal/gemm"
	"deepbat/internal/lambda"
	"deepbat/internal/nn"
	"deepbat/internal/tensor"
)

// linear is one nn.Linear, or a row/column block of one, packed for
// gemm.Blocked.
type linear struct {
	w       []float64 // gemm.Pack layout of the in×out weight block
	b       []float64 // out biases; nil (forward adds nothing) when the block's bias is added elsewhere
	in, out int
}

// packBlock packs rows [r0, r0+in) × columns [c0, c0+out) of l's weights,
// with the matching bias columns when bias is set.
func packBlock(l *nn.Linear, r0, in, c0, out int, bias bool) linear {
	cols := l.W.Cols()
	block := make([]float64, in*out)
	for r := 0; r < in; r++ {
		src := (r0+r)*cols + c0
		copy(block[r*out:(r+1)*out], l.W.Data[src:src+out])
	}
	p := linear{w: make([]float64, gemm.PackedLen(in, out)), in: in, out: out}
	gemm.Pack(p.w, block, in, out)
	if bias {
		p.b = append([]float64(nil), l.B.Data[c0:c0+out]...)
	}
	return p
}

func packLinear(l *nn.Linear) linear {
	return packBlock(l, 0, l.W.Rows(), 0, l.W.Cols(), true)
}

// forward sets dst (n×out) = x (n×in) · W + b, as nn.Linear.Forward.
func (l *linear) forward(dst, x []float64, n int) {
	gemm.Blocked(dst, x, l.w, 0, n, l.in, l.out)
	l.addBias(dst, n)
}

func (l *linear) addBias(dst []float64, n int) {
	for r := 0; r < n; r++ {
		row := dst[r*l.out : (r+1)*l.out]
		for c, b := range l.b {
			row[c] += b
		}
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

// layerNorm holds the constants of one nn.LayerNorm.
type layerNorm struct {
	gain, bias []float64
	eps        float64
}

func packLayerNorm(n *nn.LayerNorm) layerNorm {
	return layerNorm{
		gain: append([]float64(nil), n.Gain.Data...),
		bias: append([]float64(nil), n.Bias.Data...),
		eps:  n.Eps,
	}
}

// addNorm sets x = LayerNorm(x + t) row by row: tensor.Add followed by
// tensor.LayerNorm, in place.
func (n *layerNorm) addNorm(x, t []float64, rows int) {
	m := len(n.gain)
	for r := 0; r < rows; r++ {
		row, add := x[r*m:(r+1)*m], t[r*m:(r+1)*m]
		mean := 0.0
		for c := range row {
			row[c] += add[c]
			mean += row[c]
		}
		mean /= float64(m)
		v := 0.0
		for _, xv := range row {
			d := xv - mean
			v += d * d
		}
		v /= float64(m)
		is := 1 / math.Sqrt(v+n.eps)
		for c, xv := range row {
			h := (xv - mean) * is
			row[c] = h*n.gain[c] + n.bias[c]
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

// attention is one nn.MultiHeadAttention with its Q/K/V projections split
// into per-head column blocks, so each head's operands come out contiguous.
type attention struct {
	q, k, v []linear // per head: dim → hd
	o       linear
	hd      int
	scale   float64
}

func packAttention(a *nn.MultiHeadAttention) attention {
	hd := a.Dim / a.Heads
	p := attention{o: packLinear(a.Wo), hd: hd, scale: 1 / math.Sqrt(float64(hd))}
	for h := 0; h < a.Heads; h++ {
		p.q = append(p.q, packBlock(a.Wq, 0, a.Dim, h*hd, hd, true))
		p.k = append(p.k, packBlock(a.Wk, 0, a.Dim, h*hd, hd, true))
		p.v = append(p.v, packBlock(a.Wv, 0, a.Dim, h*hd, hd, true))
	}
	return p
}

// floats is the arena forward(l) takes.
func (a *attention) floats(l int) int { return 7*l*a.hd + l*l + l*a.o.in }

// forward sets dst (l×dim) to the unmasked self-attention of x (l×dim).
func (a *attention) forward(ws *workspace, dst, x []float64, l int) {
	d, hd := a.o.in, a.hd
	mark := ws.mark()
	q, k, v := ws.take(l*hd), ws.take(l*hd), ws.take(l*hd)
	kt, ktPacked, vPacked := ws.take(hd*l), ws.take(hd*l), ws.take(l*hd)
	att, av, cat := ws.take(l*l), ws.take(l*hd), ws.take(l*d)
	for h := range a.q {
		a.q[h].forward(q, x, l)
		a.k[h].forward(k, x, l)
		a.v[h].forward(v, x, l)
		for i := 0; i < l; i++ {
			for t := 0; t < hd; t++ {
				kt[t*l+i] = k[i*hd+t]
			}
		}
		gemm.Pack(ktPacked, kt, hd, l)
		gemm.Blocked(att, q, ktPacked, 0, l, hd, l)
		softmaxScaled(att, l, l, a.scale)
		gemm.Pack(vPacked, v, l, hd)
		gemm.Blocked(av, att, vPacked, 0, l, l, hd)
		for i := 0; i < l; i++ {
			copy(cat[i*d+h*hd:i*d+(h+1)*hd], av[i*hd:(i+1)*hd])
		}
	}
	a.o.forward(dst, cat, l)
	ws.release(mark)
}

// encoderLayer is one nn.EncoderLayer in evaluation mode (dropout is the
// identity).
type encoderLayer struct {
	att          attention
	ff1, ff2     linear
	norm1, norm2 layerNorm
}

func (e *encoderLayer) floats(l int) int { return l*e.ff2.out + e.att.floats(l) + l*e.ff1.out }

// forward applies the layer to x (l×dim) in place.
func (e *encoderLayer) forward(ws *workspace, x []float64, l int) {
	mark := ws.mark()
	t := ws.take(l * e.ff2.out)
	e.att.forward(ws, t, x, l)
	e.norm1.addNorm(x, t, l)
	h := ws.take(l * e.ff1.out)
	e.ff1.forward(h, x, l)
	relu(h)
	e.ff2.forward(t, h, l)
	e.norm2.addNorm(x, t, l)
	ws.release(mark)
}

// weights is the packed form of every parameter of a Model, plus the means
// to tell whether the live parameters have moved since it was packed.
type weights struct {
	live []*tensor.Tensor // Params() when packed
	key  []float64        // their values then, flattened in order

	dim            int
	embed          linear
	pos            *nn.PositionalEncoding
	layers         []encoderLayer
	post           attention
	feat1, feat2   linear // featFF
	outTop, outBot linear // outFF.L1 split at row dim: the e1 half and the e2 half (which carries the bias)
	out2           linear // outFF.L2
}

func pack(m *Model) *weights {
	d := m.Cfg.EmbedDim
	w := &weights{
		live:   m.Params(),
		dim:    d,
		embed:  packLinear(m.embed),
		pos:    m.pos,
		post:   packAttention(m.postAtt),
		feat1:  packLinear(m.featFF.L1),
		feat2:  packLinear(m.featFF.L2),
		outTop: packBlock(m.outFF.L1, 0, d, 0, m.outFF.Hidden, false),
		outBot: packBlock(m.outFF.L1, d, d, 0, m.outFF.Hidden, true),
		out2:   packLinear(m.outFF.L2),
	}
	for _, p := range w.live {
		w.key = append(w.key, p.Data...)
	}
	for _, l := range m.enc.Layers {
		w.layers = append(w.layers, encoderLayer{
			att:   packAttention(l.Att),
			ff1:   packLinear(l.FF.L1),
			ff2:   packLinear(l.FF.L2),
			norm1: packLayerNorm(l.Norm1),
			norm2: packLayerNorm(l.Norm2),
		})
	}
	return w
}

// sameBits reports whether a and b hold identical bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// current reports whether every live parameter still holds the bits that
// were packed. This is what makes a stale snapshot impossible: whoever
// changed the weights (Train, FineTune, Load, a test writing Params()
// directly) need not tell anyone.
func (w *weights) current() bool {
	off := 0
	for _, p := range w.live {
		end := off + len(p.Data)
		if end > len(w.key) || !sameBits(p.Data, w.key[off:end]) {
			return false
		}
		off = end
	}
	return off == len(w.key)
}

// encodeFloats is the arena standardizing and encoding a window of length l
// takes. Layers share one shape and release their scratch in turn, so the
// peak is one layer's.
func (w *weights) encodeFloats(l int) int {
	n := l + l*w.dim + 2*w.dim + w.post.floats(1)
	if len(w.layers) > 0 {
		n += w.layers[0].floats(l)
	}
	return n
}

// encode runs the sequence branch (EncodeSequence's tape-free twin) on an
// already standardized window x and returns the (dim) encoding, which lives
// in ws.
func (w *weights) encode(ws *workspace, x []float64, postAttention bool) []float64 {
	l, d := len(x), w.dim
	e := ws.take(l * d)
	w.embed.forward(e, x, l)
	for i, p := range w.pos.Rows(l) {
		e[i] += p
	}
	for i := range w.layers {
		w.layers[i].forward(ws, e, l)
	}
	pooled := ws.take(d)
	for c := range pooled {
		pooled[c] = 0
	}
	for r := 0; r < l; r++ {
		for c, v := range e[r*d : (r+1)*d] {
			pooled[c] += v
		}
	}
	inv := 1 / float64(l)
	for c := range pooled {
		pooled[c] *= inv
	}
	if !postAttention {
		return pooled
	}
	e1 := ws.take(d)
	w.post.forward(ws, e1, pooled, 1)
	return e1
}

// headFloats is the arena a head pass over n rows takes.
func (w *weights) headFloats(n int) int {
	return n*(w.feat1.out+w.feat2.out+w.outTop.out+w.out2.out) + w.outTop.out
}

// features runs the feature branch (Eq. 5) over n standardized (M, B, T)
// rows into dst (n×dim).
func (w *weights) features(ws *workspace, dst, feats []float64, n int) {
	mark := ws.mark()
	h := ws.take(n * w.feat1.out)
	w.feat1.forward(h, feats, n)
	relu(h)
	w.feat2.forward(dst, h, n)
	ws.release(mark)
}

// headRows runs the feature branch and output head over n rows, each with
// its own encoding (e1, n×dim) and standardized features (feats, n×3), and
// returns the n×OutputDim scaled outputs, which live in ws.
func (w *weights) headRows(ws *workspace, e1, feats []float64, n int) []float64 {
	e2 := ws.take(n * w.dim)
	w.features(ws, e2, feats, n)
	h := ws.take(n * w.outTop.out)
	w.outTop.forward(h, e1, n)
	return w.headTail(ws, h, e2, n)
}

// headTail finishes Eq. 6 from hidden accumulators h (n×hidden) that already
// hold each row's e1·W1[:dim] partial: the e2 half of the product resumes
// every cell's sum where the e1 half stopped, so h ends up with exactly the
// bits of [e1|e2]·W1.
func (w *weights) headTail(ws *workspace, h, e2 []float64, n int) []float64 {
	gemm.BlockedAcc(h, e2, w.outBot.w, 0, n, w.dim, w.outBot.out)
	w.outBot.addBias(h, n)
	relu(h)
	out := ws.take(n * w.out2.out)
	w.out2.forward(out, h, n)
	return out
}

// compiled is what Model.snap holds: the packed weights plus, for the grid
// last swept, the feature-branch rows — which depend only on the weights,
// the feature standardization and the grid, never on the window.
type compiled struct {
	*weights
	cfgs              []lambda.Config
	featMean, featStd [3]float64
	e2                []float64 // len(cfgs)×dim
}

func sameConfigs(a, b []lambda.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i, c := range a {
		o := b[i]
		if c.BatchSize != o.BatchSize ||
			math.Float64bits(c.MemoryMB) != math.Float64bits(o.MemoryMB) ||
			math.Float64bits(c.TimeoutS) != math.Float64bits(o.TimeoutS) {
			return false
		}
	}
	return true
}

// sweeps reports whether c's cached feature rows are those of cfgs under
// norm.
func (c *compiled) sweeps(cfgs []lambda.Config, norm *Normalization) bool {
	return sameConfigs(c.cfgs, cfgs) &&
		sameBits(c.featMean[:], norm.FeatMean[:]) && sameBits(c.featStd[:], norm.FeatStd[:])
}

// headGrid runs the output head for one encoding against every cached
// candidate row: the e1 half of the hidden product is the same for all of
// them, so it is computed once and each row's accumulators start from it.
func (c *compiled) headGrid(ws *workspace, e1 []float64) []float64 {
	k, hidden := len(c.cfgs), c.outTop.out
	part := ws.take(hidden)
	c.outTop.forward(part, e1, 1)
	h := ws.take(k * hidden)
	for i := 0; i < k; i++ {
		copy(h[i*hidden:(i+1)*hidden], part)
	}
	return c.headTail(ws, h, c.e2, k)
}

// compiled returns a snapshot that is valid right now: its weights match the
// live parameters bit for bit and, when cfgs is non-nil, its feature rows
// are those of cfgs under the current Norm. Validation is one linear
// bit-compare per call; a mismatch repacks (weights) or recomputes the
// feature rows (grid) and publishes the result for the next caller.
// Concurrent callers may each publish; every snapshot is immutable, so each
// keeps computing on the one it validated.
func (m *Model) compiled(cfgs []lambda.Config) *compiled {
	c := m.snap.Load()
	if c == nil || !c.current() {
		c = &compiled{weights: pack(m)}
		m.snap.Store(c)
	}
	if cfgs == nil || c.sweeps(cfgs, &m.Norm) {
		return c
	}
	k := len(cfgs)
	g := &compiled{
		weights:  c.weights,
		cfgs:     append([]lambda.Config(nil), cfgs...),
		featMean: m.Norm.FeatMean,
		featStd:  m.Norm.FeatStd,
		e2:       make([]float64, k*c.dim),
	}
	ws := getWorkspace(k * (3 + c.feat1.out))
	feats := ws.take(k * 3)
	for i, cfg := range cfgs {
		m.normalizeFeaturesRow(feats[i*3:(i+1)*3], cfg)
	}
	g.features(ws, g.e2, feats, k)
	putWorkspace(ws)
	m.snap.Store(g)
	return g
}

// workspace is a bump arena of float64s: kernels take what they need and
// release back to a mark, stack fashion. It never grows mid-pass — callers
// reserve the pass's total up front (the floats methods above), which keeps
// every kernel allocation-free; taking more than was reserved is a bug.
type workspace struct {
	buf []float64
	off int
}

func (ws *workspace) take(n int) []float64 {
	if ws.off+n > len(ws.buf) {
		panic("surrogate: inference workspace under-reserved")
	}
	s := ws.buf[ws.off : ws.off+n : ws.off+n]
	ws.off += n
	return s
}

func (ws *workspace) mark() int        { return ws.off }
func (ws *workspace) release(mark int) { ws.off = mark }

// workspaces recycles arenas across calls and goroutines; contents are never
// cleared, every kernel overwrites what it takes.
var workspaces sync.Pool

// getWorkspace returns an empty arena of at least n floats.
func getWorkspace(n int) *workspace {
	ws, _ := workspaces.Get().(*workspace)
	if ws == nil {
		ws = &workspace{}
	}
	if len(ws.buf) < n {
		ws.buf = make([]float64, n)
	}
	ws.off = 0
	return ws
}

func putWorkspace(ws *workspace) { workspaces.Put(ws) }
