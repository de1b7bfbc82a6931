// Package arrival implements Markovian Arrival Processes (MAPs), the workload
// model the paper uses both to generate its bursty synthetic traces and as
// the fitted arrival model inside the BATCH baseline. It provides process
// construction (Poisson, 2-state MMPP, on-off), exact simulation, analytic
// interarrival moments and autocorrelation, the analytic index of dispersion,
// and a moment/autocorrelation-matching fitting procedure for empirical
// traces (a compact stand-in for the KPC-toolbox fitting pipeline that BATCH
// depends on).
package arrival

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"deepbat/internal/linalg"
	"deepbat/internal/stats"
)

// MAP is a Markovian Arrival Process with hidden-transition generator D0 and
// arrival-transition matrix D1; D0+D1 is the generator of the phase CTMC.
type MAP struct {
	D0, D1 *linalg.Mat
}

// ErrInvalid reports a malformed MAP.
var ErrInvalid = errors.New("arrival: invalid MAP")

// New constructs a MAP from D0 and D1 and validates it.
func New(d0, d1 *linalg.Mat) (*MAP, error) {
	m := &MAP{D0: d0, D1: d1}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Order returns the number of phases.
func (m *MAP) Order() int { return m.D0.R }

// Validate checks the MAP structural constraints: D1 >= 0 elementwise,
// off-diagonal D0 >= 0, negative D0 diagonal, and zero row sums of D0+D1.
func (m *MAP) Validate() error {
	n := m.D0.R
	if m.D0.C != n || m.D1.R != n || m.D1.C != n {
		return fmt.Errorf("%w: dimension mismatch", ErrInvalid)
	}
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			d0 := m.D0.At(i, j)
			d1 := m.D1.At(i, j)
			if d1 < 0 {
				return fmt.Errorf("%w: negative D1[%d][%d]", ErrInvalid, i, j)
			}
			if i != j && d0 < 0 {
				return fmt.Errorf("%w: negative off-diagonal D0[%d][%d]", ErrInvalid, i, j)
			}
			if i == j && d0 >= 0 {
				return fmt.Errorf("%w: non-negative diagonal D0[%d][%d]", ErrInvalid, i, j)
			}
			row += d0 + d1
		}
		if math.Abs(row) > 1e-9 {
			return fmt.Errorf("%w: row %d of D0+D1 sums to %g", ErrInvalid, i, row)
		}
	}
	return nil
}

// Poisson returns the order-1 MAP of a Poisson process with the given rate.
func Poisson(rate float64) *MAP {
	return &MAP{
		D0: linalg.FromRows([][]float64{{-rate}}),
		D1: linalg.FromRows([][]float64{{rate}}),
	}
}

// MMPP2 returns a two-state Markov-modulated Poisson process. State 1 emits
// at rate lambda1 and switches to state 2 at rate r12; state 2 emits at rate
// lambda2 and switches back at rate r21.
func MMPP2(lambda1, lambda2, r12, r21 float64) *MAP {
	return &MAP{
		D0: linalg.FromRows([][]float64{
			{-(lambda1 + r12), r12},
			{r21, -(lambda2 + r21)},
		}),
		D1: linalg.FromRows([][]float64{
			{lambda1, 0},
			{0, lambda2},
		}),
	}
}

// OnOff returns an on-off MMPP: bursts at rateOn, silent otherwise. meanOn
// and meanOff are the mean sojourn times of the two modes.
func OnOff(rateOn, meanOn, meanOff float64) *MAP {
	return MMPP2(rateOn, 0, 1/meanOn, 1/meanOff)
}

// Erlang returns the renewal MAP whose interarrival times are Erlang-k with
// the given overall rate (k exponential stages each at rate k*rate). Erlang
// arrivals are smoother than Poisson (SCV = 1/k).
func Erlang(k int, rate float64) *MAP {
	if k < 1 {
		panic("arrival: Erlang requires k >= 1")
	}
	stage := float64(k) * rate
	d0 := linalg.NewMat(k, k)
	d1 := linalg.NewMat(k, k)
	for i := 0; i < k; i++ {
		d0.Set(i, i, -stage)
		if i+1 < k {
			d0.Set(i, i+1, stage)
		} else {
			d1.Set(i, 0, stage) // completing the last stage is an arrival
		}
	}
	return &MAP{D0: d0, D1: d1}
}

// HyperExp returns the renewal MAP whose interarrival times are a two-branch
// hyperexponential: with probability p an Exp(r1) gap, otherwise Exp(r2).
// Hyperexponential arrivals are burstier than Poisson (SCV > 1) but carry no
// autocorrelation.
func HyperExp(p, r1, r2 float64) *MAP {
	if p < 0 || p > 1 || r1 <= 0 || r2 <= 0 {
		panic("arrival: HyperExp requires p in [0,1] and positive rates")
	}
	d0 := linalg.FromRows([][]float64{{-r1, 0}, {0, -r2}})
	d1 := linalg.FromRows([][]float64{
		{p * r1, (1 - p) * r1},
		{p * r2, (1 - p) * r2},
	})
	return &MAP{D0: d0, D1: d1}
}

// Superpose returns the superposition of two independent MAPs — the process
// of their merged arrival streams — via Kronecker sums:
// D0 = A0 ⊕ B0, D1 = A1 ⊕ B1. The order is the product of the orders.
func Superpose(a, b *MAP) (*MAP, error) {
	return New(linalg.KronSum(a.D0, b.D0), linalg.KronSum(a.D1, b.D1))
}

// Generator returns D0 + D1, the phase-process CTMC generator.
func (m *MAP) Generator() *linalg.Mat { return linalg.Add(m.D0, m.D1) }

// StationaryPhase returns the stationary distribution of the phase CTMC.
func (m *MAP) StationaryPhase() ([]float64, error) {
	return linalg.StationaryVector(m.Generator())
}

// Rate returns the long-run arrival rate lambda = pi D1 1.
func (m *MAP) Rate() (float64, error) {
	pi, err := m.StationaryPhase()
	if err != nil {
		return 0, err
	}
	return linalg.Dot(linalg.VecMat(pi, m.D1), linalg.Ones(m.Order())), nil
}

// ArrivalPhase returns the stationary phase distribution embedded at arrival
// instants, phi = pi D1 / lambda.
func (m *MAP) ArrivalPhase() ([]float64, error) {
	pi, err := m.StationaryPhase()
	if err != nil {
		return nil, err
	}
	v := linalg.VecMat(pi, m.D1)
	lambda := 0.0
	for _, x := range v {
		lambda += x
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("%w: zero arrival rate", ErrInvalid)
	}
	for i := range v {
		v[i] /= lambda
	}
	return v, nil
}

// negD0Inv returns (-D0)^{-1}, the fundamental matrix of the interarrival
// phase-type distribution.
func (m *MAP) negD0Inv() (*linalg.Mat, error) {
	return linalg.Inverse(linalg.Scale(m.D0, -1))
}

// Moments returns the first two moments of the stationary interarrival time.
func (m *MAP) Moments() (m1, m2 float64, err error) {
	phi, err := m.ArrivalPhase()
	if err != nil {
		return 0, 0, err
	}
	inv, err := m.negD0Inv()
	if err != nil {
		return 0, 0, err
	}
	ones := linalg.Ones(m.Order())
	mv := linalg.MatVec(inv, ones) // conditional means per phase
	m1 = linalg.Dot(phi, mv)
	m2 = 2 * linalg.Dot(phi, linalg.MatVec(inv, mv))
	return m1, m2, nil
}

// SCV returns the squared coefficient of variation of interarrival times.
func (m *MAP) SCV() (float64, error) {
	m1, m2, err := m.Moments()
	if err != nil {
		return 0, err
	}
	if m1 == 0 {
		return 0, fmt.Errorf("%w: zero mean interarrival", ErrInvalid)
	}
	return m2/(m1*m1) - 1, nil
}

// LagCorrelation returns the lag-k autocorrelation of the interarrival
// sequence, rho_k = (E[X_0 X_k] - mu^2) / sigma^2, using the standard MAP
// result E[X_0 X_k] = phi (-D0)^{-1} P^k m with P = (-D0)^{-1} D1.
func (m *MAP) LagCorrelation(k int) (float64, error) {
	if k <= 0 {
		return 1, nil
	}
	phi, err := m.ArrivalPhase()
	if err != nil {
		return 0, err
	}
	inv, err := m.negD0Inv()
	if err != nil {
		return 0, err
	}
	p := linalg.Mul(inv, m.D1)
	ones := linalg.Ones(m.Order())
	mv := linalg.MatVec(inv, ones)
	m1 := linalg.Dot(phi, mv)
	m2 := 2 * linalg.Dot(phi, linalg.MatVec(inv, mv))
	variance := m2 - m1*m1
	if variance <= 0 {
		return 0, nil
	}
	// phi (-D0)^{-1} P^k m
	v := linalg.VecMat(phi, inv)
	for i := 0; i < k; i++ {
		v = linalg.VecMat(v, p)
	}
	joint := linalg.Dot(v, mv)
	return (joint - m1*m1) / variance, nil
}

// IDC returns the analytic index of dispersion truncated at maxLag,
// IDC = SCV * (1 + 2 sum_{k=1..maxLag} rho_k), matching the paper's
// definition of trace burstiness.
func (m *MAP) IDC(maxLag int) (float64, error) {
	scv, err := m.SCV()
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for k := 1; k <= maxLag; k++ {
		r, err := m.LagCorrelation(k)
		if err != nil {
			return 0, err
		}
		sum += r
		if math.Abs(r) < 1e-12 {
			break
		}
	}
	return scv * (1 + 2*sum), nil
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

// Gen draws interarrival times from a MAP, maintaining the hidden phase
// between calls.
type Gen struct {
	m     *MAP
	rng   *rand.Rand
	phase int
}

// NewGen returns a generator starting from the stationary arrival phase.
func NewGen(m *MAP, rng *rand.Rand) (*Gen, error) {
	phi, err := m.ArrivalPhase()
	if err != nil {
		return nil, err
	}
	g := &Gen{m: m, rng: rng}
	g.phase = samplePhase(phi, rng)
	return g, nil
}

func samplePhase(dist []float64, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// Next returns the next interarrival time.
func (g *Gen) Next() float64 {
	t := 0.0
	n := g.m.Order()
	for {
		out := -g.m.D0.At(g.phase, g.phase)
		t += g.rng.ExpFloat64() / out
		// Decide which transition fired.
		u := g.rng.Float64() * out
		acc := 0.0
		// Arrival transitions first.
		for j := 0; j < n; j++ {
			acc += g.m.D1.At(g.phase, j)
			if u < acc {
				g.phase = j
				return t
			}
		}
		// Hidden transitions.
		for j := 0; j < n; j++ {
			if j == g.phase {
				continue
			}
			acc += g.m.D0.At(g.phase, j)
			if u < acc {
				g.phase = j
				break
			}
		}
	}
}

// Sample draws n interarrival times.
func (g *Gen) Sample(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// SampleUntil draws interarrival times until their sum exceeds horizon,
// returning the absolute arrival timestamps in (0, horizon].
func (g *Gen) SampleUntil(horizon float64) []float64 {
	var ts []float64
	t := 0.0
	for {
		t += g.Next()
		if t > horizon {
			return ts
		}
		ts = append(ts, t)
	}
}

// ---------------------------------------------------------------------------
// Fitting (the BATCH front-end)
// ---------------------------------------------------------------------------

// FitResult describes a fitted MAP and the matching quality.
type FitResult struct {
	MAP *MAP
	// Empirical targets.
	Mean, SCV, Rho1 float64
	// Objective value at the optimum (sum of squared relative errors).
	Objective float64
	// Evaluations counts how many candidate processes were scored; it is a
	// proxy for the computational cost that the paper attributes to the
	// fitting step of BATCH.
	Evaluations int
}

// FitMMPP2 fits a 2-state MMPP to an interarrival-time trace by matching the
// mean rate exactly and searching (burst ratio, low-rate ratio, switching
// time scale) to match the SCV and the autocorrelation at small lags. Traces
// with SCV <= 1.05 degenerate to a Poisson fit.
//
// The search is an exhaustive logarithmic grid followed by multiplicative
// coordinate descent — intentionally similar in spirit (and cost profile) to
// moment-matching MAP fitting tools.
func FitMMPP2(inter []float64) (*FitResult, error) {
	if len(inter) < 8 {
		return nil, errors.New("arrival: too few samples to fit")
	}
	m1 := stats.Mean(inter)
	if m1 <= 0 {
		return nil, errors.New("arrival: non-positive mean interarrival")
	}
	lambda := 1 / m1
	scv := stats.SCV(inter)
	rho1 := stats.Autocorrelation(inter, 1)
	rho5 := stats.Autocorrelation(inter, 5)

	res := &FitResult{Mean: m1, SCV: scv, Rho1: rho1}
	if scv <= 1.05 {
		res.MAP = Poisson(lambda)
		res.Evaluations = 1
		return res, nil
	}

	// Candidate builder: a = lambda1/lambda (burst ratio > 1),
	// b = lambda2/lambda in [0, 1), s = total switching rate scale.
	build := func(a, b, s float64) *MAP {
		// Stationary share of the fast state so the overall rate is lambda:
		// p*a + (1-p)*b = 1  =>  p = (1-b)/(a-b).
		p := (1 - b) / (a - b)
		if p <= 0 || p >= 1 {
			return nil
		}
		r21 := p * s
		r12 := (1 - p) * s
		return MMPP2(a*lambda, b*lambda, r12, r21)
	}
	score := func(cand *MAP) float64 {
		cs, err := cand.SCV()
		if err != nil {
			return math.Inf(1)
		}
		c1, err := cand.LagCorrelation(1)
		if err != nil {
			return math.Inf(1)
		}
		c5, err := cand.LagCorrelation(5)
		if err != nil {
			return math.Inf(1)
		}
		es := (cs - scv) / scv
		e1 := c1 - rho1
		e5 := c5 - rho5
		return es*es + 4*(e1*e1) + e5*e5
	}

	best := math.Inf(1)
	var bestA, bestB, bestS float64
	evals := 0
	as := []float64{1.5, 2, 3, 5, 8, 12, 20, 32, 50}
	bs := []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
	ss := []float64{lambda / 1000, lambda / 300, lambda / 100, lambda / 30, lambda / 10, lambda / 3, lambda}
	for _, a := range as {
		for _, b := range bs {
			if b >= 1 || b >= a {
				continue
			}
			for _, s := range ss {
				cand := build(a, b, s)
				if cand == nil {
					continue
				}
				evals++
				if v := score(cand); v < best {
					best, bestA, bestB, bestS = v, a, b, s
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		res.MAP = Poisson(lambda)
		res.Evaluations = evals
		return res, nil
	}

	// Multiplicative coordinate descent refinement.
	step := 1.3
	for iter := 0; iter < 40; iter++ {
		improved := false
		for dim := 0; dim < 3; dim++ {
			for _, f := range []float64{step, 1 / step} {
				a, b, s := bestA, bestB, bestS
				switch dim {
				case 0:
					a *= f
					if a <= 1.01 {
						continue
					}
				case 1:
					if b == 0 {
						b = 0.01 * f
					} else {
						b *= f
					}
					if b >= 0.95 {
						continue
					}
				case 2:
					s *= f
				}
				cand := build(a, b, s)
				if cand == nil {
					continue
				}
				evals++
				if v := score(cand); v < best {
					best, bestA, bestB, bestS = v, a, b, s
					improved = true
				}
			}
		}
		if !improved {
			step = math.Sqrt(step)
			if step < 1.01 {
				break
			}
		}
	}
	res.MAP = build(bestA, bestB, bestS)
	res.Objective = best
	res.Evaluations = evals
	return res, nil
}
