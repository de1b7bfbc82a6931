// The inference snapshot: what Predict, PredictGrid, EncodeSequence, the
// batched evaluation passes and AttentionScores run on. A compiled value is
// a snapshot of the model — a forward-only packed network (trainstep.go)
// and the feature-branch rows of the grid last swept — and it runs the
// network in evaluation mode on a pooled arena. It is valid until the
// parameter block is next written, and every writer (NewModel, Train, Load)
// drops it, so no snapshot is ever checked against the weights.
//
// The grid sweep adds the one step with no training twin: headGrid computes
// the encoding's half of the output head's hidden product once and resumes
// every candidate row from it over the cached feature rows. See DESIGN.md, "Layer 3 — the packed network".

package surrogate

import (
	"math"
	"sync"

	"deepbat/internal/lambda"
)

// compiled is what Model.snap holds: the forward-only network and, for the
// grid last swept, the feature-branch rows — which depend only on the
// weights, the feature standardization and the grid, never on the window.
type compiled struct {
	*network

	cfgs              []lambda.Config
	featMean, featStd [3]float64
	e2                []float64 // len(cfgs)×dim
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

// compiled returns a snapshot that is valid right now: it was packed from
// the current parameter block (every writer of the block drops the
// snapshot) and, when cfgs is non-nil, its feature rows are those of cfgs
// under the current Norm. A missing snapshot is packed and a grid mismatch
// recomputes the feature rows; either is published for the next caller.
// Concurrent callers may each publish; every snapshot is immutable, so each
// keeps computing on the one it took.
func (m *Model) compiled(cfgs []lambda.Config) *compiled {
	c := m.snap.Load()
	if c == nil {
		c = &compiled{network: newNetwork(m, false)}
		c.repack()
		m.snap.Store(c)
	}
	if cfgs == nil || c.sweeps(cfgs, &m.Norm) {
		return c
	}
	k := len(cfgs)
	g := &compiled{
		network:  c.network,
		cfgs:     append([]lambda.Config(nil), cfgs...),
		featMean: m.Norm.FeatMean,
		featStd:  m.Norm.FeatStd,
		e2:       make([]float64, k*c.dim),
	}
	ws := getWorkspace(k * (3 + c.feat1.out))
	feats, fh := ws.take(k*3), ws.take(k*c.feat1.out)
	for i, cfg := range cfgs {
		m.normalizeFeaturesRow(feats[i*3:(i+1)*3], cfg)
	}
	g.features(fh, g.e2, feats, k)
	putWorkspace(ws)
	m.snap.Store(g)
	return g
}

// workspace is a bump arena of float64s: kernels take what they need and
// release back to a mark, stack fashion. It never grows mid-pass — callers
// reserve the pass's total up front (the floats methods), which keeps every
// kernel allocation-free; taking more than was reserved panics.
type workspace struct {
	buf []float64
	off int
}

func (ws *workspace) take(n int) []float64 {
	if ws.off+n > len(ws.buf) {
		panic("surrogate: workspace under-reserved")
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

// getWorkspace returns an empty arena of exactly n floats, backed by a
// pooled buffer when one is large enough.
func getWorkspace(n int) *workspace {
	ws, _ := workspaces.Get().(*workspace)
	if ws == nil {
		ws = &workspace{}
	}
	if cap(ws.buf) < n {
		ws.buf = make([]float64, n)
	}
	ws.buf = ws.buf[:n]
	ws.off = 0
	return ws
}

func putWorkspace(ws *workspace) { workspaces.Put(ws) }
