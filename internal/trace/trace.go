// Package trace synthesizes the four evaluation workloads of the paper:
//
//   - "azure":   the Azure Functions trace — diurnal arrival rate with
//     moderate, time-varying burstiness;
//   - "twitter": the Twitter stream trace — near-constant rate with mild
//     burstiness (IDC around 4);
//   - "alibaba": the Alibaba PAI MLaaS trace — highly dynamic, with flat
//     periods followed by sharp peaks (e.g. hours 4, 6 and 20);
//   - "synthetic": the paper's MAP-generated workload — 24 unique MMPP
//     streams, one per hour, with strong on-off behaviour.
//
// The proprietary originals are unavailable offline; these generators are
// tuned to reproduce the arrival-rate shapes (Fig. 4) and the index-of-
// dispersion bands (Fig. 5) that drive the paper's conclusions. Traces are
// deterministic given a seed. Paper "hours" are generated at a configurable
// scale (HourSeconds of simulated time per hour) — the system under study is
// event-driven, so shapes are preserved while experiments stay fast.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"deepbat/internal/arrival"
	"deepbat/internal/qsim"
	"deepbat/internal/stats"
)

// Spec configures a trace synthesis.
type Spec struct {
	Name        string
	Hours       int
	HourSeconds float64
	Seed        int64
}

// Default spec parameters — the single source of truth for per-workload
// defaults. cmd/tracegen's flags, cmd/replay's -name path, the experiments
// lab, and workload.DefaultSpec all derive from these; change them here and
// every consumer (and every doc table) moves together.
const (
	DefaultHours       = 24
	DefaultHourSeconds = 60.0
	DefaultSeed        = int64(1)
)

// DefaultSpec returns a DefaultHours-hour spec at DefaultHourSeconds
// simulated seconds per hour with the default seed.
func DefaultSpec(name string) Spec {
	return Spec{Name: name, Hours: DefaultHours, HourSeconds: DefaultHourSeconds, Seed: DefaultSeed}
}

// Trace is a generated workload: absolute arrival timestamps spanning
// Hours * HourSeconds seconds.
type Trace struct {
	Spec       Spec
	Timestamps []float64
	// HourlyRate records the nominal mean arrival rate of each hour
	// (requests per second), before burst modulation.
	HourlyRate []float64
}

// Names lists the supported trace names.
func Names() []string { return []string{"azure", "twitter", "alibaba", "synthetic"} }

// Generate synthesizes the named trace.
func Generate(spec Spec) (*Trace, error) {
	switch spec.Name {
	case "azure":
		return genModulated(spec, azureHourParams), nil
	case "twitter":
		return genModulated(spec, twitterHourParams), nil
	case "alibaba":
		return genModulated(spec, alibabaHourParams), nil
	case "synthetic":
		return genModulated(spec, syntheticHourParams), nil
	default:
		return nil, fmt.Errorf("trace: unknown trace %q (want one of %v)", spec.Name, Names())
	}
}

// MustGenerate is Generate for known-good specs; it panics on error.
func MustGenerate(spec Spec) *Trace {
	tr, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return tr
}

// hourParams describes the MMPP of one hour: the nominal mean rate and the
// burst structure (ratio of the fast state to the mean, share of the slow
// state, and mode-switching rate).
type hourParams struct {
	rate      float64 // mean requests/second
	burst     float64 // lambda_fast / mean rate, > 1
	slowShare float64 // lambda_slow / mean rate, in [0, 1)
	switchHz  float64 // total mode switching rate (1/s)
}

// mmpp builds the hour's arrival process with the exact mean rate.
func (h hourParams) mmpp() *arrival.MAP {
	if h.burst <= 1.01 {
		return arrival.Poisson(h.rate)
	}
	a, b := h.burst, h.slowShare
	p := (1 - b) / (a - b) // stationary share of the fast state
	r21 := p * h.switchHz
	r12 := (1 - p) * h.switchHz
	return arrival.MMPP2(a*h.rate, b*h.rate, r12, r21)
}

// genModulated generates one hour at a time from per-hour MMPPs.
func genModulated(spec Spec, params func(h int, rng *rand.Rand) hourParams) *Trace {
	rng := rand.New(rand.NewSource(spec.Seed))
	tr := &Trace{Spec: spec}
	for h := 0; h < spec.Hours; h++ {
		p := params(h, rng)
		tr.HourlyRate = append(tr.HourlyRate, p.rate)
		g, err := arrival.NewGen(p.mmpp(), rng)
		if err != nil {
			// The constructions above always yield valid processes.
			panic(err)
		}
		base := float64(h) * spec.HourSeconds
		for _, t := range g.SampleUntil(spec.HourSeconds) {
			tr.Timestamps = append(tr.Timestamps, base+t)
		}
	}
	return tr
}

// azureHourParams: diurnal rate with moderate, varying burstiness.
func azureHourParams(h int, rng *rand.Rand) hourParams {
	diurnal := 1 + 0.45*math.Sin(2*math.Pi*float64(h+18)/24)
	jitter := 1 + 0.2*(rng.Float64()*2-1)
	return hourParams{
		rate:      80 * diurnal * jitter,
		burst:     2.5 + 1.5*rng.Float64(), // IDC above Twitter's, variable
		slowShare: 0.4,
		switchHz:  4 + 8*rng.Float64(),
	}
}

// twitterHourParams: steady rate, mild burstiness (IDC ~ 4).
func twitterHourParams(_ int, rng *rand.Rand) hourParams {
	jitter := 1 + 0.05*(rng.Float64()*2-1)
	return hourParams{
		rate:      100 * jitter,
		burst:     1.8,
		slowShare: 0.6,
		switchHz:  20,
	}
}

// alibabaHourParams: long flat stretches punctuated by sharp peaks at hours
// 4, 6, 12 and 20 (mod 24), with strong on-off burstiness throughout.
func alibabaHourParams(h int, rng *rand.Rand) hourParams {
	rate := 18 + 6*rng.Float64()
	switch h % 24 {
	case 4, 6, 20:
		rate = 240 + 40*rng.Float64()
	case 12:
		rate = 140 + 30*rng.Float64()
	}
	return hourParams{
		rate:      rate,
		burst:     8 + 6*rng.Float64(),
		slowShare: 0.05,
		switchHz:  0.15 + 0.15*rng.Float64(),
	}
}

// syntheticHourParams: the paper's MAP-generated workload — 24 unique,
// strongly varying MMPP streams with on-off behaviour.
func syntheticHourParams(_ int, rng *rand.Rand) hourParams {
	return hourParams{
		rate:      20 + 260*rng.Float64(),
		burst:     5 + 35*rng.Float64(),
		slowShare: 0.02 + 0.1*rng.Float64(),
		switchHz:  0.1 + 0.5*rng.Float64(),
	}
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(t.Spec.Hours) * t.Spec.HourSeconds }

// Window returns the timestamps in [from, to).
func (t *Trace) Window(from, to float64) []float64 {
	lo := searchTS(t.Timestamps, from)
	hi := searchTS(t.Timestamps, to)
	return t.Timestamps[lo:hi]
}

func searchTS(ts []float64, x float64) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Hour returns the timestamps of paper-hour h (0-based).
func (t *Trace) Hour(h int) []float64 {
	return t.Window(float64(h)*t.Spec.HourSeconds, float64(h+1)*t.Spec.HourSeconds)
}

// Interarrivals returns the full interarrival sequence.
func (t *Trace) Interarrivals() []float64 { return qsim.Interarrivals(t.Timestamps) }

// RatePoint is one sample of the arrival-rate time series (Fig. 4).
type RatePoint struct {
	TimeS float64 // window start
	Rate  float64 // requests/second
}

// RateSeries bins the trace into windows of binS seconds and returns the
// arrival rate per bin.
func (t *Trace) RateSeries(binS float64) []RatePoint {
	if binS <= 0 || len(t.Timestamps) == 0 {
		return nil
	}
	n := int(math.Ceil(t.Duration() / binS))
	counts := make([]float64, n)
	for _, ts := range t.Timestamps {
		i := int(ts / binS)
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	out := make([]RatePoint, n)
	for i := range counts {
		out[i] = RatePoint{TimeS: float64(i) * binS, Rate: counts[i] / binS}
	}
	return out
}

// HourlyIDC returns the empirical index of dispersion of each hour's
// interarrival times (Fig. 5), truncating the autocorrelation sum at maxLag.
func (t *Trace) HourlyIDC(maxLag int) []float64 {
	out := make([]float64, t.Spec.Hours)
	for h := range out {
		out[h] = stats.IDC(diffs(t.Hour(h)), maxLag)
	}
	return out
}

// diffs returns consecutive differences of a timestamp slice (the
// interarrival times strictly inside the window, without an artificial gap
// back to the window start).
func diffs(ts []float64) []float64 {
	if len(ts) < 2 {
		return nil
	}
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i] - ts[i-1]
	}
	return out
}

// FirstHours returns a shallow trace view containing only hours [0, h).
func (t *Trace) FirstHours(h int) *Trace {
	if h > t.Spec.Hours {
		h = t.Spec.Hours
	}
	spec := t.Spec
	spec.Hours = h
	return &Trace{
		Spec:       spec,
		Timestamps: t.Window(0, float64(h)*t.Spec.HourSeconds),
		HourlyRate: t.HourlyRate[:h],
	}
}

// LastHours returns a trace view of the final h hours, re-based to time 0.
func (t *Trace) LastHours(h int) *Trace {
	if h > t.Spec.Hours {
		h = t.Spec.Hours
	}
	from := float64(t.Spec.Hours-h) * t.Spec.HourSeconds
	win := t.Window(from, t.Duration())
	shifted := make([]float64, len(win))
	for i, ts := range win {
		shifted[i] = ts - from
	}
	spec := t.Spec
	spec.Hours = h
	return &Trace{
		Spec:       spec,
		Timestamps: shifted,
		HourlyRate: t.HourlyRate[t.Spec.Hours-h:],
	}
}
