// The inference snapshot: what Predict, PredictGrid, EncodeSequence, the
// batched evaluation passes and AttentionScores run on. A compiled value is
// an immutable snapshot of the model — a forward-only packed network
// (trainstep.go) that owns copies of everything it reads, the flat copy of
// the parameters it was packed from, and the feature-branch rows of the grid
// last swept — and it runs the network in evaluation mode on a pooled arena.
//
// The grid sweep adds the one step with no training twin: headGrid computes
// the encoding's half of the output head's hidden product once and resumes
// every candidate row from it over the cached feature rows. See DESIGN.md, "Layer 3 — the packed network".

package surrogate

import (
	"math"
	"sync"

	"deepbat/internal/lambda"
	"deepbat/internal/tensor"
)

// compiled is what Model.snap holds: the forward-only network, the means to
// tell whether the live parameters have moved since it was packed, and, for
// the grid last swept, the feature-branch rows — which depend only on the
// weights, the feature standardization and the grid, never on the window.
type compiled struct {
	*network
	live []*tensor.Tensor // Params() when packed
	key  []float64        // their values then, flattened in order

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

// current reports whether every live parameter still holds the bits that
// were packed. This is what makes a stale snapshot impossible: whoever
// changed the weights (Train, FineTune, Load, a test writing Params()
// directly) need not tell anyone.
func (c *compiled) current() bool {
	off := 0
	for _, p := range c.live {
		end := off + len(p.Data)
		if end > len(c.key) || !sameBits(p.Data, c.key[off:end]) {
			return false
		}
		off = end
	}
	return off == len(c.key)
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
		c = &compiled{network: newNetwork(m, nil), live: m.Params()}
		c.repack()
		n := 0
		for _, p := range c.live {
			n += len(p.Data)
		}
		c.key = make([]float64, 0, n)
		for _, p := range c.live {
			c.key = append(c.key, p.Data...)
		}
		m.snap.Store(c)
	}
	if cfgs == nil || c.sweeps(cfgs, &m.Norm) {
		return c
	}
	k := len(cfgs)
	g := &compiled{
		network:  c.network,
		live:     c.live,
		key:      c.key,
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
