// Package batchopt implements the BATCH baseline (Ali et al., SC'20) that
// the paper compares against: an analytical model of serverless batching
// under Markovian Arrival Process (MAP) traffic.
//
// Model. A collection cycle starts when a request arrives to an empty
// buffer. The batch is dispatched either when B requests have accumulated
// (the (B-1)-th additional arrival) or T seconds after the cycle started,
// whichever comes first. Service is deterministic given the configuration
// and runs at unlimited concurrency (serverless autoscaling), so a request's
// latency is its buffering delay plus the batch service time.
//
// Analysis. Working on a discretized time grid over [0, T], the analyzer
// builds, per starting phase, the matrix densities of the j-th arrival epoch
// (iterated convolutions of e^(D0 t) D1) and the transient counting
// probabilities P(N(tau) = r). From those it derives the exact per-request
// waiting-time distribution, split by realized batch size, for both
// dispatch-by-count and dispatch-by-timeout cycles; combining with the
// deterministic service times yields the latency distribution, and
// renewal-reward over cycles yields the expected cost per request. This is
// the same quantity BATCH obtains through matrix-analytic methods, and like
// BATCH it is orders of magnitude more expensive than a surrogate forward
// pass — matrix exponentials and O(B G^2) convolutions per configuration.
//
// The full BATCH pipeline (Pipeline) first fits a MAP to the observed
// interarrival times (arrival.FitMMPP2, standing in for the KPC-toolbox
// fitting step) and then exhaustively optimizes the configuration grid
// against the analytical predictions.
package batchopt

import (
	"errors"
	"math"
	"sort"

	"deepbat/internal/arrival"
	"deepbat/internal/lambda"
	"deepbat/internal/linalg"
	"deepbat/internal/sweep"
)

// Analyzer evaluates configurations analytically against a MAP.
type Analyzer struct {
	Profile lambda.Profile
	Pricing lambda.Pricing
	// GridSteps is the number of time-discretization bins over [0, T].
	GridSteps int
}

// NewAnalyzer returns an Analyzer with the default grid resolution.
func NewAnalyzer(p lambda.Profile, pr lambda.Pricing) *Analyzer {
	return &Analyzer{Profile: p, Pricing: pr, GridSteps: 192}
}

// Prediction is the analytical performance estimate of one configuration.
type Prediction struct {
	Config         lambda.Config
	CostPerRequest float64
	// MeanBatchSize is the expected number of requests per invocation.
	MeanBatchSize float64
	// latencies/weights form the weighted latency distribution.
	latencies []float64
	weights   []float64
	sorted    bool
}

// Percentile returns the p-th percentile (p in [0, 100]) of the per-request
// latency distribution.
func (pr *Prediction) Percentile(p float64) float64 {
	if len(pr.latencies) == 0 {
		return 0
	}
	if !pr.sorted {
		idx := make([]int, len(pr.latencies))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return pr.latencies[idx[a]] < pr.latencies[idx[b]] })
		ls := make([]float64, len(idx))
		ws := make([]float64, len(idx))
		for i, j := range idx {
			ls[i] = pr.latencies[j]
			ws[i] = pr.weights[j]
		}
		pr.latencies, pr.weights = ls, ws
		pr.sorted = true
	}
	total := 0.0
	for _, w := range pr.weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	target := p / 100 * total
	acc := 0.0
	for i, w := range pr.weights {
		acc += w
		if acc >= target {
			return pr.latencies[i]
		}
	}
	return pr.latencies[len(pr.latencies)-1]
}

// Mean returns the mean per-request latency.
func (pr *Prediction) Mean() float64 {
	var s, w float64
	for i := range pr.latencies {
		s += pr.latencies[i] * pr.weights[i]
		w += pr.weights[i]
	}
	if w == 0 {
		return 0
	}
	return s / w
}

// Analyze computes the latency distribution and expected cost per request of
// cfg under MAP traffic m.
func (a *Analyzer) Analyze(m *arrival.MAP, cfg lambda.Config) (*Prediction, error) {
	if !cfg.Valid() {
		return nil, errors.New("batchopt: invalid configuration " + cfg.String())
	}
	phi, err := m.ArrivalPhase()
	if err != nil {
		return nil, err
	}
	pred := &Prediction{Config: cfg}

	// Degenerate cases: B = 1 or no accumulation time — every request is
	// dispatched immediately upon arrival in its own batch.
	if cfg.BatchSize == 1 || cfg.TimeoutS <= 0 {
		svc := a.Profile.ServiceTime(cfg.MemoryMB, 1)
		pred.CostPerRequest = a.Pricing.CostPerRequest(cfg.MemoryMB, svc, 1)
		pred.MeanBatchSize = 1
		pred.latencies = []float64{svc}
		pred.weights = []float64{1}
		return pred, nil
	}

	n := m.Order()
	G := a.GridSteps
	if G < 8 {
		G = 8
	}
	dt := cfg.TimeoutS / float64(G)
	B := cfg.BatchSize

	// Precompute step operators.
	eStep := linalg.Expm(linalg.Scale(m.D0, dt))   // e^(D0 dt)
	eHalf := linalg.Expm(linalg.Scale(m.D0, dt/2)) // e^(D0 dt/2)
	d1dt := linalg.Scale(m.D1, dt)                 // D1 dt
	// A1[i]: density x dt of the next arrival in bin i, as a phase matrix
	// evaluated at the bin midpoint: e^(D0 (i+1/2) dt) D1 dt.
	a1 := make([]*linalg.Mat, G)
	cur := eHalf.Clone()
	for i := 0; i < G; i++ {
		a1[i] = linalg.Mul(cur, d1dt)
		cur = linalg.Mul(cur, eStep)
	}

	// Aj[j][i]: j-th arrival epoch density (iterated convolution), j=1..B-1.
	aj := make([][]*linalg.Mat, B)
	aj[1] = a1
	for j := 2; j <= B-1; j++ {
		prev := aj[j-1]
		cvd := make([]*linalg.Mat, G)
		for i := 0; i < G; i++ {
			acc := linalg.NewMat(n, n)
			for k := 0; k <= i; k++ {
				// prev at bin k, next interarrival spanning i-k bins.
				acc = linalg.Add(acc, linalg.Mul(prev[k], a1[i-k]))
			}
			cvd[i] = acc
		}
		aj[j] = cvd
	}

	// Cr[r][i]: P(N(tau_i) = r) as a phase matrix at grid point tau_i = i dt,
	// for r = 0..B-2 (exact counts that end in a timeout dispatch).
	cr := make([][]*linalg.Mat, B-1)
	c0 := make([]*linalg.Mat, G+1)
	c0[0] = linalg.Identity(n)
	for i := 1; i <= G; i++ {
		c0[i] = linalg.Mul(c0[i-1], eStep)
	}
	cr[0] = c0
	for r := 1; r <= B-2; r++ {
		prev := cr[r-1]
		out := make([]*linalg.Mat, G+1)
		out[0] = linalg.NewMat(n, n)
		for i := 1; i <= G; i++ {
			acc := linalg.NewMat(n, n)
			for k := 0; k < i; k++ {
				// arrival in bin k (midpoint (k+1/2) dt), then exactly r-1
				// arrivals in the remaining (i-k-1/2) dt ~ grid point i-k-1.
				rem := i - k - 1
				acc = linalg.Add(acc, linalg.Mul(a1[k], prev[rem]))
			}
			out[i] = acc
		}
		cr[r] = out
	}

	ones := linalg.Ones(n)
	// u[mcount][d] = P(the mcount-th next arrival lands in bin d | phase),
	// as a per-phase column vector.
	u := make([][][]float64, B)
	for j := 1; j <= B-1; j++ {
		u[j] = make([][]float64, G)
		for d := 0; d < G; d++ {
			u[j][d] = linalg.MatVec(aj[j][d], ones)
		}
	}
	// csum[r][i] = P(N(tau_i) = r | phase) column vectors.
	cvec := make([][][]float64, B-1)
	for r := 0; r <= B-2; r++ {
		cvec[r] = make([][]float64, G+1)
		for i := 0; i <= G; i++ {
			cvec[r][i] = linalg.MatVec(cr[r][i], ones)
		}
	}

	// V[j][k] = phi A_j[k]: row vector over phases, the probability that the
	// j-th additional arrival happens in bin k jointly with the phase there.
	v := make([][][]float64, B)
	v[0] = nil // position 0 arrives at time zero with phase phi
	for j := 1; j <= B-1; j++ {
		v[j] = make([][]float64, G)
		for k := 0; k < G; k++ {
			v[j][k] = linalg.VecMat(phi, aj[j][k])
		}
	}
	// Prefix sums over k of V[j][k] for the count-dispatch case.
	vpre := make([][][]float64, B)
	for j := 1; j <= B-1; j++ {
		vpre[j] = make([][]float64, G+1)
		vpre[j][0] = make([]float64, n)
		for k := 0; k < G; k++ {
			nxt := make([]float64, n)
			for p := 0; p < n; p++ {
				nxt[p] = vpre[j][k][p] + v[j][k][p]
			}
			vpre[j][k+1] = nxt
		}
	}

	// hist[b][d] accumulates request weight with realized batch size b and
	// waiting time ~ (d+1/2) dt; bin G means "waited exactly T".
	hist := make([][]float64, B+1)
	for b := 1; b <= B; b++ {
		hist[b] = make([]float64, G+1)
	}

	// --- Dispatch by count: batch size B, requires the (B-1)-th additional
	// arrival within [0, T].
	// Position 0 waits until the (B-1)-th arrival: weight phi . u[B-1][d].
	for d := 0; d < G; d++ {
		hist[B][d] += linalg.Dot(phi, u[B-1][d])
	}
	// Position j (1..B-1) waits from its own arrival at bin k to the
	// (B-1)-th at bin k+d; summing over k <= G-d uses the prefix sums.
	for j := 1; j <= B-1; j++ {
		rest := B - 1 - j
		if rest == 0 {
			// The B-th request triggers the dispatch: zero wait. Its total
			// probability is that of the (B-1)-th arrival within the window.
			pTrig := 0.0
			for k := 0; k < G; k++ {
				pTrig += linalg.Dot(v[j][k], ones)
			}
			hist[B][0] += pTrig
			continue
		}
		for d := 0; d < G; d++ {
			hist[B][d] += linalg.Dot(vpre[j][G-d], u[rest][d])
		}
	}

	// --- Dispatch by timeout: batch size b = mcount+1 with mcount <= B-2
	// additional arrivals in [0, T].
	for mcount := 0; mcount <= B-2; mcount++ {
		b := mcount + 1
		// Position 0 waits exactly T.
		hist[b][G] += linalg.Dot(phi, cvec[mcount][G])
		// Position j arrived at bin k; needs exactly mcount-j further
		// arrivals in the remaining time ~ (G-k) grid points; waits T - t_k.
		for j := 1; j <= mcount; j++ {
			r := mcount - j
			for k := 0; k < G; k++ {
				hist[b][G-k-1] += linalg.Dot(v[j][k], cvec[r][G-k-1])
			}
		}
	}

	// Assemble the weighted latency distribution and the cycle economics.
	var costCycle, reqCycle float64
	for b := 1; b <= B; b++ {
		svc := a.Profile.ServiceTime(cfg.MemoryMB, b)
		inv := a.Pricing.InvocationCost(cfg.MemoryMB, svc)
		var wsum float64
		for d := 0; d <= G; d++ {
			w := hist[b][d]
			if w <= 0 {
				continue
			}
			wait := (float64(d) + 0.5) * dt
			if d == G {
				wait = cfg.TimeoutS
			}
			pred.latencies = append(pred.latencies, wait+svc)
			pred.weights = append(pred.weights, w)
			wsum += w
		}
		reqCycle += wsum
		// wsum/b is the probability the cycle realized batch size b.
		costCycle += inv * wsum / float64(b)
	}
	if reqCycle <= 0 {
		return nil, errors.New("batchopt: degenerate cycle (no probability mass)")
	}
	pred.CostPerRequest = costCycle / reqCycle
	// E[b] over cycles: requests per cycle / cycles (total cycle prob = sum
	// over b of wsum/b).
	var cycles float64
	for b := 1; b <= B; b++ {
		var wsum float64
		for d := 0; d <= G; d++ {
			wsum += hist[b][d]
		}
		cycles += wsum / float64(b)
	}
	if cycles > 0 {
		pred.MeanBatchSize = reqCycle / cycles
	}
	return pred, nil
}

// Optimize exhaustively evaluates every configuration in the grid and
// returns the cheapest one whose pct-percentile latency meets the SLO. When
// no configuration is feasible it returns the one with the lowest predicted
// tail latency. Each configuration's Analyze call is one sweep cell; on
// failure the error of the lowest-index configuration comes back.
func (a *Analyzer) Optimize(m *arrival.MAP, grid lambda.Grid, slo, pct float64) (lambda.Config, *Prediction, error) {
	cfgs := grid.Configs()
	if len(cfgs) == 0 {
		return lambda.Config{}, nil, errors.New("batchopt: empty grid")
	}
	preds := make([]*Prediction, len(cfgs))
	err := sweep.Run(sweep.Options{}, len(cfgs), func(c *sweep.Cell) error {
		var err error
		preds[c.Index], err = a.Analyze(m, cfgs[c.Index])
		return err
	})
	if err != nil {
		return lambda.Config{}, nil, err
	}
	bestIdx, fallback := -1, 0
	bestTail := math.Inf(1)
	for i, p := range preds {
		tail := p.Percentile(pct)
		if tail < bestTail {
			bestTail, fallback = tail, i
		}
		if tail > slo {
			continue
		}
		if bestIdx < 0 || p.CostPerRequest < preds[bestIdx].CostPerRequest {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		bestIdx = fallback
	}
	return cfgs[bestIdx], preds[bestIdx], nil
}

// Report summarizes one full BATCH decision.
type Report struct {
	Fit        *arrival.FitResult
	Config     lambda.Config
	Prediction *Prediction
}

// Pipeline is the end-to-end BATCH baseline: fit a MAP to the observed
// window, then optimize the grid analytically.
type Pipeline struct {
	Analyzer *Analyzer
	Grid     lambda.Grid
	SLO      float64
	Pct      float64
}

// NewPipeline builds the baseline with the paper's defaults (95th-percentile
// SLO objective).
func NewPipeline(p lambda.Profile, pr lambda.Pricing, grid lambda.Grid, slo float64) *Pipeline {
	return &Pipeline{Analyzer: NewAnalyzer(p, pr), Grid: grid, SLO: slo, Pct: 95}
}

// Decide fits the interarrival window and returns the optimized
// configuration, exactly as BATCH re-parameterizes every control period.
func (b *Pipeline) Decide(inter []float64) (*Report, error) {
	fit, err := arrival.FitMMPP2(inter)
	if err != nil {
		return nil, err
	}
	cfg, pred, err := b.Analyzer.Optimize(fit.MAP, b.Grid, b.SLO, b.Pct)
	if err != nil {
		return nil, err
	}
	return &Report{Fit: fit, Config: cfg, Prediction: pred}, nil
}
