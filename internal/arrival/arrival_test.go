package arrival

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepbat/internal/linalg"
	"deepbat/internal/stats"
)

func TestValidate(t *testing.T) {
	if err := Poisson(2).Validate(); err != nil {
		t.Fatalf("Poisson invalid: %v", err)
	}
	if err := MMPP2(5, 0.5, 0.1, 0.2).Validate(); err != nil {
		t.Fatalf("MMPP2 invalid: %v", err)
	}
	// Broken row sums.
	bad := &MAP{
		D0: linalg.FromRows([][]float64{{-1}}),
		D1: linalg.FromRows([][]float64{{2}}),
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected invalid MAP")
	}
	// Negative D1.
	bad2 := &MAP{
		D0: linalg.FromRows([][]float64{{1}}),
		D1: linalg.FromRows([][]float64{{-1}}),
	}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected invalid MAP (negative D1)")
	}
	if _, err := New(bad.D0, bad.D1); err == nil {
		t.Fatal("New should validate")
	}
	if m, err := New(Poisson(1).D0, Poisson(1).D1); err != nil || m == nil {
		t.Fatal("New on valid MAP failed")
	}
}

func TestPoissonAnalytics(t *testing.T) {
	p := Poisson(4)
	rate, err := p.Rate()
	if err != nil || math.Abs(rate-4) > 1e-12 {
		t.Fatalf("rate = %v err %v", rate, err)
	}
	m1, m2, err := p.Moments()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1-0.25) > 1e-12 || math.Abs(m2-2.0/16) > 1e-12 {
		t.Fatalf("moments = %v %v", m1, m2)
	}
	scv, _ := p.SCV()
	if math.Abs(scv-1) > 1e-12 {
		t.Fatalf("SCV(poisson) = %v", scv)
	}
	for _, k := range []int{1, 3, 10} {
		r, _ := p.LagCorrelation(k)
		if math.Abs(r) > 1e-10 {
			t.Fatalf("rho_%d(poisson) = %v", k, r)
		}
	}
	idc, _ := p.IDC(50)
	if math.Abs(idc-1) > 1e-9 {
		t.Fatalf("IDC(poisson) = %v", idc)
	}
}

func TestMMPP2Rate(t *testing.T) {
	// Symmetric switching: half time at 10, half at 2 -> rate 6.
	m := MMPP2(10, 2, 0.5, 0.5)
	rate, err := m.Rate()
	if err != nil || math.Abs(rate-6) > 1e-10 {
		t.Fatalf("rate = %v err %v", rate, err)
	}
}

func TestMMPP2BurstyHasHighSCVAndPositiveACF(t *testing.T) {
	m := MMPP2(50, 0.5, 0.05, 0.05)
	scv, err := m.SCV()
	if err != nil {
		t.Fatal(err)
	}
	if scv < 2 {
		t.Fatalf("SCV = %v, want bursty >> 1", scv)
	}
	r1, _ := m.LagCorrelation(1)
	r5, _ := m.LagCorrelation(5)
	if r1 <= 0 || r5 <= 0 {
		t.Fatalf("autocorrelations = %v %v, want positive", r1, r5)
	}
	if r5 >= r1 {
		t.Fatalf("ACF should decay: rho1=%v rho5=%v", r1, r5)
	}
	idc, _ := m.IDC(2000)
	if idc < scv {
		t.Fatalf("IDC %v should exceed SCV %v for positively correlated process", idc, scv)
	}
}

func TestLagZeroIsOne(t *testing.T) {
	m := MMPP2(5, 1, 0.1, 0.1)
	r, err := m.LagCorrelation(0)
	if err != nil || r != 1 {
		t.Fatalf("rho_0 = %v err %v", r, err)
	}
}

func TestArrivalPhaseSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1 := 1 + rng.Float64()*20
		l2 := rng.Float64() * l1
		r12 := 0.01 + rng.Float64()
		r21 := 0.01 + rng.Float64()
		m := MMPP2(l1, l2, r12, r21)
		phi, err := m.ArrivalPhase()
		if err != nil {
			return l2 == 0 // zero-rate corner may legitimately fail
		}
		sum := 0.0
		for _, p := range phi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGenPoissonStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := NewGen(Poisson(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := g.Sample(100000)
	if m := stats.Mean(xs); math.Abs(m-0.2) > 0.01 {
		t.Fatalf("sampled mean = %v, want 0.2", m)
	}
	if s := stats.SCV(xs); math.Abs(s-1) > 0.05 {
		t.Fatalf("sampled SCV = %v, want 1", s)
	}
}

func TestGenMMPP2MatchesAnalytics(t *testing.T) {
	m := MMPP2(20, 1, 0.2, 0.2)
	rng := rand.New(rand.NewSource(12))
	g, err := NewGen(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := g.Sample(300000)
	wantMean, _, _ := m.Moments()
	if got := stats.Mean(xs); math.Abs(got-wantMean)/wantMean > 0.05 {
		t.Fatalf("sampled mean %v vs analytic %v", got, wantMean)
	}
	wantSCV, _ := m.SCV()
	if got := stats.SCV(xs); math.Abs(got-wantSCV)/wantSCV > 0.15 {
		t.Fatalf("sampled SCV %v vs analytic %v", got, wantSCV)
	}
	wantR1, _ := m.LagCorrelation(1)
	if got := stats.Autocorrelation(xs, 1); math.Abs(got-wantR1) > 0.05 {
		t.Fatalf("sampled rho1 %v vs analytic %v", got, wantR1)
	}
}

func TestGenPhaseTracked(t *testing.T) {
	m := MMPP2(100, 0.1, 1, 1)
	rng := rand.New(rand.NewSource(13))
	g, err := NewGen(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		g.Next()
		seen[g.phase] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("phases visited = %v, want both", seen)
	}
}

func TestSampleUntil(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g, err := NewGen(Poisson(10), rng)
	if err != nil {
		t.Fatal(err)
	}
	ts := g.SampleUntil(50)
	if len(ts) < 300 || len(ts) > 700 {
		t.Fatalf("got %d arrivals in 50s at rate 10, want ~500", len(ts))
	}
	for i, v := range ts {
		if v <= 0 || v > 50 {
			t.Fatalf("timestamp out of range: %v", v)
		}
		if i > 0 && v < ts[i-1] {
			t.Fatal("timestamps not monotone")
		}
	}
}

func TestOnOff(t *testing.T) {
	m := OnOff(100, 1, 9)
	rate, err := m.Rate()
	if err != nil {
		t.Fatal(err)
	}
	// On 10% of the time at rate 100 -> average 10.
	if math.Abs(rate-10) > 1e-9 {
		t.Fatalf("OnOff rate = %v, want 10", rate)
	}
	scv, _ := m.SCV()
	if scv < 3 {
		t.Fatalf("OnOff SCV = %v, want bursty", scv)
	}
}

func TestFitPoissonTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / 8
	}
	res, err := FitMMPP2(xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAP.Order() != 1 {
		t.Fatalf("Poisson trace should fit order-1, got %d", res.MAP.Order())
	}
	rate, _ := res.MAP.Rate()
	if math.Abs(rate-8)/8 > 0.05 {
		t.Fatalf("fitted rate = %v, want ~8", rate)
	}
}

func TestFitBurstyTraceRecoversStatistics(t *testing.T) {
	truth := MMPP2(30, 1, 0.05, 0.05)
	rng := rand.New(rand.NewSource(22))
	g, err := NewGen(truth, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := g.Sample(100000)
	res, err := FitMMPP2(xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAP.Order() != 2 {
		t.Fatalf("bursty trace should fit MMPP2, got order %d", res.MAP.Order())
	}
	// Rate matched exactly by construction.
	wantRate := 1 / stats.Mean(xs)
	rate, _ := res.MAP.Rate()
	if math.Abs(rate-wantRate)/wantRate > 1e-6 {
		t.Fatalf("fitted rate %v vs empirical %v", rate, wantRate)
	}
	// SCV in the right ballpark.
	fitSCV, _ := res.MAP.SCV()
	empSCV := stats.SCV(xs)
	if math.Abs(fitSCV-empSCV)/empSCV > 0.5 {
		t.Fatalf("fitted SCV %v vs empirical %v", fitSCV, empSCV)
	}
	// Positive autocorrelation captured.
	r1, _ := res.MAP.LagCorrelation(1)
	if r1 <= 0 {
		t.Fatalf("fitted rho1 = %v, want positive", r1)
	}
	if res.Evaluations < 50 {
		t.Fatalf("fit evaluated only %d candidates; expected an expensive search", res.Evaluations)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitMMPP2([]float64{1, 2}); err == nil {
		t.Fatal("expected error for tiny trace")
	}
	if _, err := FitMMPP2(make([]float64, 100)); err == nil {
		t.Fatal("expected error for zero-mean trace")
	}
}

func TestErlangAnalytics(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		m := Erlang(k, 5)
		if err := m.Validate(); err != nil {
			t.Fatalf("Erlang(%d) invalid: %v", k, err)
		}
		rate, err := m.Rate()
		if err != nil || math.Abs(rate-5) > 1e-9 {
			t.Fatalf("Erlang(%d) rate = %v err %v", k, rate, err)
		}
		scv, err := m.SCV()
		if err != nil || math.Abs(scv-1/float64(k)) > 1e-9 {
			t.Fatalf("Erlang(%d) SCV = %v, want %v", k, scv, 1/float64(k))
		}
		// Renewal process: no interarrival autocorrelation.
		r1, _ := m.LagCorrelation(1)
		if math.Abs(r1) > 1e-9 {
			t.Fatalf("Erlang(%d) rho1 = %v, want 0", k, r1)
		}
	}
}

func TestErlangPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Erlang(0, 1)
}

func TestHyperExpAnalytics(t *testing.T) {
	m := HyperExp(0.2, 20, 1)
	if err := m.Validate(); err != nil {
		t.Fatalf("HyperExp invalid: %v", err)
	}
	// Mean interarrival: p/r1 + (1-p)/r2 = 0.2/20 + 0.8/1 = 0.81.
	m1, _, err := m.Moments()
	if err != nil || math.Abs(m1-0.81) > 1e-9 {
		t.Fatalf("HyperExp mean = %v err %v", m1, err)
	}
	scv, _ := m.SCV()
	if scv <= 1 {
		t.Fatalf("HyperExp SCV = %v, want > 1", scv)
	}
	r1, _ := m.LagCorrelation(1)
	if math.Abs(r1) > 1e-9 {
		t.Fatalf("HyperExp rho1 = %v, want 0 (renewal)", r1)
	}
}

func TestHyperExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HyperExp(2, 1, 1)
}

func TestSuperposeRatesAdd(t *testing.T) {
	a := Poisson(3)
	b := MMPP2(10, 2, 0.5, 0.5)
	sup, err := Superpose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Order() != 2 {
		t.Fatalf("superposed order = %d, want 2", sup.Order())
	}
	ra, _ := a.Rate()
	rb, _ := b.Rate()
	rs, err := sup.Rate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs-(ra+rb)) > 1e-9 {
		t.Fatalf("superposed rate %v, want %v", rs, ra+rb)
	}
}

func TestSuperposePoissonIsPoisson(t *testing.T) {
	sup, err := Superpose(Poisson(2), Poisson(5))
	if err != nil {
		t.Fatal(err)
	}
	scv, err := sup.SCV()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scv-1) > 1e-9 {
		t.Fatalf("superposed Poisson SCV = %v, want 1", scv)
	}
	r1, _ := sup.LagCorrelation(1)
	if math.Abs(r1) > 1e-9 {
		t.Fatalf("superposed Poisson rho1 = %v, want 0", r1)
	}
}

func TestSuperposeSimulationMatches(t *testing.T) {
	a := MMPP2(30, 1, 0.2, 0.2)
	b := Poisson(10)
	sup, err := Superpose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantMean, _, err := sup.Moments()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	g, err := NewGen(sup, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := g.Sample(200000)
	if got := stats.Mean(xs); math.Abs(got-wantMean)/wantMean > 0.05 {
		t.Fatalf("superposed sampled mean %v vs analytic %v", got, wantMean)
	}
}

func TestIDCAnalyticVsEmpirical(t *testing.T) {
	m := MMPP2(20, 0.5, 0.1, 0.1)
	ana, err := m.IDC(5000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	g, _ := NewGen(m, rng)
	xs := g.Sample(400000)
	emp := stats.IDC(xs, 2000)
	if emp < ana/4 || emp > ana*4 {
		t.Fatalf("empirical IDC %v far from analytic %v", emp, ana)
	}
}
