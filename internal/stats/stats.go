// Package stats provides the statistical primitives used throughout the
// DeepBAT reproduction: percentiles, error metrics (MAPE), SLO violation
// counting (VCR), and index-of-dispersion computations for arrival
// processes.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// ApproxEqual reports whether a and b are equal within the absolute
// tolerance tol. It is the tolerance helper deepbatlint's floatcompare rule
// steers all float equality toward: the exact == fast path below is the only
// place it is approved, and it is required for equal infinities (whose
// difference is NaN).
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

// PercentileLevelTol is the tolerance used when matching configured
// percentile levels (e.g. 95.0): levels are small exact constants, so any
// sub-ulp-scale tolerance distinguishes them safely.
const PercentileLevelTol = 1e-9

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n), or 0 when
// fewer than two samples are present.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SCV returns the squared coefficient of variation, Var/Mean^2.
// It returns 0 when the mean is zero.
func SCV(xs []float64) float64 {
	m := Mean(xs)
	if m*m == 0 { // includes denormal means whose square underflows
		return 0
	}
	return Variance(xs) / (m * m)
}

// Autocorrelation returns the lag-k autocorrelation coefficient of xs.
// Lags that exceed the sample size return 0.
func Autocorrelation(xs []float64, k int) float64 {
	n := len(xs)
	if k < 0 || k >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+k < n; i++ {
		num += (xs[i] - m) * (xs[i+k] - m)
	}
	return num / den
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// Percentiles returns the requested percentiles of xs in one pass over a
// single sorted copy. The result has the same length and order as ps.
func Percentiles(xs []float64, ps []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	out := make([]float64, len(ps))
	return out, PercentilesInPlace(append([]float64(nil), xs...), ps, out)
}

// PercentilesInPlace writes to out[i] exactly what Percentile(xs, ps[i])
// returns, from one sort of xs itself: it REORDERS xs, leaving it sorted, and
// allocates nothing, where each Percentile call sorts a fresh copy. out must
// hold len(ps) values. An empty xs zeroes them and returns ErrEmpty.
func PercentilesInPlace(xs, ps, out []float64) error {
	if len(xs) == 0 {
		clear(out[:len(ps)])
		return ErrEmpty
	}
	sort.Float64s(xs)
	for i, p := range ps {
		out[i] = percentileSorted(xs, p)
	}
	return nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := percentileRank(len(sorted), p)
	return interpolate(sorted[lo], sorted[hi], lo == hi, frac)
}

// percentileRank returns the two order statistics the p-th percentile (clamped
// to [0,100]) of n samples lies between, and the weight of the upper one.
func percentileRank(n int, p float64) (lo, hi int, frac float64) {
	if n == 1 {
		return 0, 0, 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	return lo, int(math.Ceil(rank)), rank - float64(lo)
}

// interpolate is the one place the percentile formula is evaluated, so the
// sorting and the selecting percentile cannot round differently.
func interpolate(a, b float64, same bool, frac float64) float64 {
	if same {
		return a
	}
	return a*(1-frac) + b*frac
}

// PercentileExceeds reports whether the p-th percentile of n samples, as
// Percentile computes it, is known to exceed bound from a count alone: over
// of the samples exceed bound, and minOver is the smallest of those. It holds
// when the lower order statistic the percentile interpolates from is one of
// the exceeding samples (both order statistics are then at least minOver)
// and interpolate(minOver, minOver) already exceeds bound: the formula is
// monotone in both statistics under round-to-nearest, so the percentile is
// at least that value. NaN samples sort below everything and never exceed,
// so they do not break the argument. False means "not known", not "within".
//
// over and minOver may also describe only some of the exceeding samples, as
// long as over is at least PercentileTop(n, p): the lower order statistic is
// then still at least the smallest of those seen.
func PercentileExceeds(n, over int, minOver, p, bound float64) bool {
	if over <= 0 || n <= 0 {
		return false
	}
	lo, hi, frac := percentileRank(n, p)
	return lo >= n-over && interpolate(minOver, minOver, lo == hi, frac) > bound
}

// PercentileTop is how many of n samples lie at or above the lower order
// statistic the p-th percentile interpolates from: the fewest exceeding
// samples PercentileExceeds can refute with.
func PercentileTop(n int, p float64) int {
	lo, _, _ := percentileRank(n, p)
	return n - lo
}

// PercentileSelect returns exactly what Percentile returns, but finds the two
// order statistics by selection in xs itself: it REORDERS xs, allocates
// nothing, and runs in linear expected time instead of sorting a copy.
func PercentileSelect(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	lo, hi, frac := percentileRank(len(xs), p)
	// sort.Float64s orders NaNs before everything else; move them there so
	// the rest is totally ordered by <.
	nan := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[nan] = xs[nan], xs[i]
			nan++
		}
	}
	a, b := math.NaN(), math.NaN()
	if lo >= nan {
		selectKth(xs[nan:], lo-nan)
		a = xs[lo]
	}
	if hi > lo && hi >= nan {
		// Everything right of a selected lo is no smaller than it, so the
		// next order statistic is that part's minimum.
		b = xs[hi]
		for _, x := range xs[hi+1:] {
			if x < b {
				b = x
			}
		}
	}
	return interpolate(a, b, lo == hi, frac), nil
}

// selectKth reorders xs, which holds no NaN, so that xs[k] is its k-th
// smallest element, nothing left of k is larger and nothing right of it is
// smaller: quickselect on a median-of-three pivot, with a sort of the
// remaining range when the pivots keep splitting badly.
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo >= 12 && budget > 0; budget-- {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		// xs[lo] <= pivot <= xs[hi] bound both scans. Stopping on equal
		// elements splits runs of duplicates down the middle.
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] <= pivot <= xs[i..hi], and anything between is the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	sort.Float64s(xs[lo : hi+1])
}

// MAPE returns the mean absolute percentage error between predictions and
// truths, in percent. Pairs whose true value is zero are skipped; if every
// pair is skipped MAPE returns 0.
func MAPE(pred, truth []float64) float64 {
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	var s float64
	var cnt int
	for i := 0; i < n; i++ {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return s / float64(cnt) * 100
}

// VCR (SLO Violation Count Ratio, Eq. 11 of the paper) returns the percentage
// of latencies that exceed the SLO.
func VCR(latencies []float64, slo float64) float64 {
	if len(latencies) == 0 {
		return 0
	}
	viol := 0
	for _, l := range latencies {
		if l > slo {
			viol++
		}
	}
	return float64(viol) / float64(len(latencies)) * 100
}

// IDC computes the empirical index of dispersion of a stationary sequence
// (typically interarrival times) following the paper's definition:
//
//	IDC = (sigma^2 / mu^2) * (1 + 2 * sum_k rho_k)
//
// The autocorrelation sum is truncated at maxLag (or when the estimate
// becomes unreliable near the end of the sample). An IDC of 1 indicates no
// autocorrelation with exponential-like variability.
func IDC(xs []float64, maxLag int) float64 {
	n := len(xs)
	if n < 2 {
		return 1
	}
	m := Mean(xs)
	if m*m == 0 { // includes denormal means whose square underflows
		return 1
	}
	scv := Variance(xs) / (m * m)
	if maxLag > n/2 {
		maxLag = n / 2
	}
	sum := 0.0
	for k := 1; k <= maxLag; k++ {
		sum += Autocorrelation(xs, k)
	}
	idc := scv * (1 + 2*sum)
	if idc < 0 {
		// Negative estimates can occur for short, anticorrelated samples;
		// clamp to a minimal positive dispersion.
		idc = 1e-6
	}
	return idc
}
