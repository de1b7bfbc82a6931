package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance single = %v, want 0", got)
	}
}

func TestSCV(t *testing.T) {
	// Exponential-like sample has SCV near 1.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	if got := SCV(xs); !almostEq(got, 1, 0.05) {
		t.Fatalf("SCV(exp) = %v, want ~1", got)
	}
	if got := SCV([]float64{0, 0}); got != 0 {
		t.Fatalf("SCV zero-mean = %v, want 0", got)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfectly alternating sequence has rho_1 near -1.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if got := Autocorrelation(xs, 1); got > -0.9 {
		t.Fatalf("rho1(alternating) = %v, want near -1", got)
	}
	if got := Autocorrelation(xs, 0); !almostEq(got, 1, 1e-12) {
		t.Fatalf("rho0 = %v, want 1", got)
	}
	if got := Autocorrelation(xs, len(xs)+5); got != 0 {
		t.Fatalf("rho out-of-range = %v, want 0", got)
	}
	if got := Autocorrelation([]float64{3, 3, 3}, 1); got != 0 {
		t.Fatalf("rho constant = %v, want 0 (zero denominator)", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	p, err := Percentile(xs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, 29, 1e-9) { // linear interpolation: 20 + 0.6*(35-20)
		t.Fatalf("P40 = %v, want 29", p)
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("Percentile(nil) error = %v, want ErrEmpty", err)
	}
	// Clamping.
	lo, _ := Percentile(xs, -10)
	hi, _ := Percentile(xs, 300)
	if lo != 15 || hi != 50 {
		t.Fatalf("clamped percentiles = %v,%v want 15,50", lo, hi)
	}
	one, _ := Percentile([]float64{7}, 99)
	if one != 7 {
		t.Fatalf("single-sample percentile = %v, want 7", one)
	}
}

func TestPercentilesBatch(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got, err := Percentiles(xs, []float64{0, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := Percentiles(nil, []float64{50}); err != ErrEmpty {
		t.Fatal("expected ErrEmpty")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	truth := []float64{100, 100}
	if got := MAPE(pred, truth); !almostEq(got, 10, 1e-9) {
		t.Fatalf("MAPE = %v, want 10", got)
	}
	// Zero truths are skipped.
	if got := MAPE([]float64{5, 110}, []float64{0, 100}); !almostEq(got, 10, 1e-9) {
		t.Fatalf("MAPE with zero truth = %v, want 10", got)
	}
	if got := MAPE([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("MAPE all-zero truths = %v, want 0", got)
	}
	if got := MAPE(nil, nil); got != 0 {
		t.Fatalf("MAPE empty = %v, want 0", got)
	}
}

func TestVCR(t *testing.T) {
	ls := []float64{0.05, 0.15, 0.09, 0.2}
	if got := VCR(ls, 0.1); !almostEq(got, 50, 1e-12) {
		t.Fatalf("VCR = %v, want 50", got)
	}
	if got := VCR(nil, 0.1); got != 0 {
		t.Fatalf("VCR empty = %v, want 0", got)
	}
	if got := VCR(ls, 1); got != 0 {
		t.Fatalf("VCR high slo = %v, want 0", got)
	}
}

func TestPercentileOrderProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		p50, _ := Percentile(xs, 50)
		p95, _ := Percentile(xs, 95)
		p99, _ := Percentile(xs, 99)
		return p50 <= p95+1e-9 && p95 <= p99+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIDCPoisson(t *testing.T) {
	// Exponential interarrivals (Poisson process) should yield IDC near 1.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	idc := IDC(xs, 100)
	if idc < 0.7 || idc > 1.4 {
		t.Fatalf("IDC(poisson) = %v, want ~1", idc)
	}
}

func TestIDCBursty(t *testing.T) {
	// Strongly autocorrelated on/off interarrivals should have IDC >> 1.
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 20000)
	fast := true
	for i := range xs {
		if i%500 == 0 {
			fast = !fast
		}
		if fast {
			xs[i] = rng.ExpFloat64() * 0.01
		} else {
			xs[i] = rng.ExpFloat64() * 1.0
		}
	}
	idc := IDC(xs, 250)
	if idc < 5 {
		t.Fatalf("IDC(bursty) = %v, want >> 1", idc)
	}
}

func TestIDCEdgeCases(t *testing.T) {
	if got := IDC(nil, 10); got != 1 {
		t.Fatalf("IDC(nil) = %v, want 1", got)
	}
	if got := IDC([]float64{0, 0, 0}, 2); got != 1 {
		t.Fatalf("IDC zero-mean = %v, want 1", got)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1.0, 1.0, 0, true},
		{1.0, 1.0 + 1e-12, 1e-9, true},
		{1.0, 1.1, 1e-9, false},
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.Inf(1), 1.0, 1e9, false},
		{0, -0.0, 0, true},
		{math.NaN(), math.NaN(), 1e-9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

// percentileShapes generates the samples the in-place percentile helpers are
// held to Percentile on: random, heavy duplicates, constant, sorted,
// reverse-sorted, organ-pipe, and NaNs (which sort.Float64s orders first)
// mixed with infinities.
func percentileShapes(rng *rand.Rand) map[string]func(n int) []float64 {
	return map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			return xs
		},
		"duplicates": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(3))
			}
			return xs
		},
		"constant": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 0.25
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i) * 0.1
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n-i) * 0.1
			}
			return xs
		},
		"organ pipe": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(min(i, n-1-i))
			}
			return xs
		},
		"nan and inf": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(6) {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = math.Inf(1 - 2*rng.Intn(2))
				default:
					xs[i] = rng.Float64()
				}
			}
			return xs
		},
	}
}

// percentileSizes is every n from 1 to 40, then 101, 500 and 2000.
func percentileSizes() []int {
	var sizes []int
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	return append(sizes, 101, 500, 2000)
}

// TestPercentileSelectMatchesPercentile is the selection helper's contract:
// bit-equal to the sorting Percentile at every n, on integer and non-integer
// ranks and every shape of percentileShapes — and it keeps xs a permutation.
func TestPercentileSelectMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ps := []float64{0, 50, 95, 99, 100, 33.3, 97.5, -4, 140}
	for name, gen := range percentileShapes(rng) {
		for _, n := range percentileSizes() {
			for _, p := range ps {
				xs := gen(n)
				want, err := Percentile(xs, p)
				if err != nil {
					t.Fatal(err)
				}
				scratch := append([]float64(nil), xs...)
				got, err := PercentileSelect(scratch, p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s n=%d p=%v: PercentileSelect = %v, Percentile = %v", name, n, p, got, want)
				}
				sort.Float64s(xs)
				sort.Float64s(scratch)
				for i := range xs {
					if math.Float64bits(xs[i]) != math.Float64bits(scratch[i]) && !math.IsNaN(xs[i]) {
						t.Fatalf("%s n=%d p=%v: PercentileSelect changed the sample", name, n, p)
					}
				}
			}
		}
	}
	if _, err := PercentileSelect(nil, 50); err != ErrEmpty {
		t.Fatal("empty sample should return ErrEmpty")
	}
}

// TestPercentilesInPlaceMatchesPercentile is the one-sort helper's contract:
// every level bit-equal to Percentile on every shape of percentileShapes, and
// xs left exactly as sort.Float64s leaves a copy of it.
func TestPercentilesInPlaceMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ps := []float64{0, 33.3, 50, 95, 99, 100}
	out := make([]float64, len(ps))
	for name, gen := range percentileShapes(rng) {
		for _, n := range percentileSizes() {
			xs := gen(n)
			want := make([]float64, len(ps))
			for i, p := range ps {
				var err error
				if want[i], err = Percentile(xs, p); err != nil {
					t.Fatal(err)
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			if err := PercentilesInPlace(xs, ps, out); err != nil {
				t.Fatal(err)
			}
			for i, p := range ps {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) && !(math.IsNaN(out[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%s n=%d p=%v: PercentilesInPlace = %v, Percentile = %v", name, n, p, out[i], want[i])
				}
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(sorted[i]) {
					t.Fatalf("%s n=%d: xs[%d] = %v after the in-place sort, sort.Float64s gives %v", name, n, i, xs[i], sorted[i])
				}
			}
		}
	}
	for i := range out {
		out[i] = 1
	}
	if err := PercentilesInPlace(nil, ps, out); err != ErrEmpty {
		t.Fatalf("empty sample: err = %v, want ErrEmpty", err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("empty sample left out[%d] = %v, want 0 as Percentile returns", i, v)
		}
	}
}

// exceeding returns how many of xs exceed bound and the smallest of those
// (+Inf if none): the count PercentileExceeds takes.
func exceeding(xs []float64, bound float64) (over int, minOver float64) {
	minOver = math.Inf(1)
	for _, x := range xs {
		if x > bound {
			over++
			minOver = math.Min(minOver, x)
		}
	}
	return over, minOver
}

// TestPercentileExceeds is the count refutation's contract: it never claims
// a percentile exceeds a bound that Percentile does not exceed, on every
// shape of percentileShapes with bounds on, just below and just above every
// sample (NaN samples included), and it does claim it in the cases its
// argument covers.
func TestPercentileExceeds(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shapes := percentileShapes(rng)
	shapes["with NaN"] = func(n int) []float64 {
		xs := shapes["random"](n)
		xs[rng.Intn(n)] = math.NaN()
		return xs
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 40, 101} {
			for _, p := range []float64{0, 50, 95, 99, 100, 33.3, -4, 140} {
				xs := gen(n)
				for _, x := range xs {
					for _, bound := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
						want, _ := Percentile(xs, p)
						// The full count, and the first PercentileTop
						// exceeding samples in arrival order.
						over, minOver := exceeding(xs, bound)
						if PercentileExceeds(n, over, minOver, p, bound) && !(want > bound) {
							t.Fatalf("%s n=%d p=%v bound=%v: refuted, but the percentile is %v", name, n, p, bound, want)
						}
						top, seen := PercentileTop(n, p), 0
						for k := range xs {
							if over, minOver = exceeding(xs[:k+1], bound); over == top {
								seen = k + 1
								break
							}
						}
						if seen > 0 && PercentileExceeds(n, over, minOver, p, bound) && !(want > bound) {
							t.Fatalf("%s n=%d p=%v bound=%v: refuted from the first %d samples, but the percentile is %v", name, n, p, bound, seen, want)
						}
					}
				}
			}
		}
	}

	cases := []struct {
		name     string
		xs       []float64
		p, bound float64
		want     bool
	}{
		// n = 1: lo == hi and frac == 0, so the percentile is the sample.
		{name: "one sample above", xs: []float64{0.3}, p: 95, bound: 0.29, want: true},
		{name: "one sample on the bound", xs: []float64{0.3}, p: 95, bound: 0.3},
		// n = 3, p = 50: an integer rank, lo == hi == 1 and frac == 0.
		{name: "integer rank, median exceeds", xs: []float64{3, 1, 2}, p: 50, bound: 1.5, want: true},
		{name: "integer rank, median on the bound", xs: []float64{3, 1, 2}, p: 50, bound: 2},
		// lo < hi: the upper statistic exceeds, the lower does not, so the
		// count cannot tell (the percentile, 9.9, does exceed 5).
		{name: "only the upper statistic exceeds", xs: []float64{0, 10}, p: 99, bound: 5},
		{name: "both statistics exceed", xs: []float64{6, 10}, p: 99, bound: 5, want: true},
		{name: "nothing exceeds", xs: []float64{1, 2, 3}, p: 100, bound: 3},
	}
	for _, c := range cases {
		over, minOver := exceeding(c.xs, c.bound)
		if got := PercentileExceeds(len(c.xs), over, minOver, c.p, c.bound); got != c.want {
			t.Errorf("%s: PercentileExceeds = %v, want %v", c.name, got, c.want)
		}
	}
	if PercentileExceeds(0, 0, math.Inf(1), 95, 0) {
		t.Error("an empty sample refuted")
	}
	for _, c := range []struct {
		n       int
		p       float64
		wantTop int
	}{{1, 95, 1}, {3, 50, 2}, {2, 99, 2}, {101, 95, 6}, {101, 100, 1}, {101, 0, 101}, {10, 140, 1}} {
		if got := PercentileTop(c.n, c.p); got != c.wantTop {
			t.Errorf("PercentileTop(%d, %v) = %d, want %d", c.n, c.p, got, c.wantTop)
		}
	}

	// The formula, not the smallest exceeding value, is what must exceed
	// the bound: find m and a non-integer rank where interpolating m with
	// itself rounds below m, and put the bound there. Every sample exceeds
	// the bound, yet the percentile equals it.
	for n := 3; n < 200; n++ {
		for _, p := range []float64{95, 99, 33.3} {
			lo, hi, frac := percentileRank(n, p)
			if lo == hi {
				continue
			}
			for k := 1; k < 1000; k++ {
				m := 0.1 * float64(k)
				v := interpolate(m, m, false, frac)
				if !(v < m) {
					continue
				}
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = m
				}
				if got, _ := Percentile(xs, p); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("n=%d p=%v m=%v: Percentile = %v, interpolate = %v", n, p, m, got, v)
				}
				if over, minOver := exceeding(xs, v); over != n || PercentileExceeds(n, over, minOver, p, v) {
					t.Fatalf("n=%d p=%v m=%v: refuted a percentile equal to the bound %v", n, p, m, v)
				}
				return
			}
		}
	}
	t.Fatal("no m found whose self-interpolation rounds below it")
}
