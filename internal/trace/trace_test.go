package trace

import (
	"math"
	"sort"
	"testing"

	"deepbat/internal/stats"
)

func gen(t *testing.T, name string) *Trace {
	t.Helper()
	tr, err := Generate(DefaultSpec(name))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestUnknownTrace(t *testing.T) {
	if _, err := Generate(DefaultSpec("nope")); err == nil {
		t.Fatal("expected error for unknown trace")
	}
}

func TestAllTracesGenerate(t *testing.T) {
	for _, name := range Names() {
		tr := gen(t, name)
		if len(tr.Timestamps) < 1000 {
			t.Fatalf("%s: only %d arrivals", name, len(tr.Timestamps))
		}
		if len(tr.HourlyRate) != 24 {
			t.Fatalf("%s: hourly rates = %d", name, len(tr.HourlyRate))
		}
		if !sort.Float64sAreSorted(tr.Timestamps) {
			t.Fatalf("%s: timestamps not sorted", name)
		}
		last := tr.Timestamps[len(tr.Timestamps)-1]
		if last > tr.Duration() {
			t.Fatalf("%s: timestamp %v beyond duration %v", name, last, tr.Duration())
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := MustGenerate(DefaultSpec("azure"))
	b := MustGenerate(DefaultSpec("azure"))
	if len(a.Timestamps) != len(b.Timestamps) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.Timestamps {
		if a.Timestamps[i] != b.Timestamps[i] {
			t.Fatal("same seed produced different timestamps")
		}
	}
	spec := DefaultSpec("azure")
	spec.Seed = 2
	c := MustGenerate(spec)
	if len(a.Timestamps) == len(c.Timestamps) {
		same := true
		for i := range a.Timestamps {
			if a.Timestamps[i] != c.Timestamps[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestAzureDiurnalShape(t *testing.T) {
	tr := gen(t, "azure")
	// The sinusoid peaks near hour 0 and dips near hour 12 with phase +18.
	maxR, minR := 0.0, math.Inf(1)
	maxH, minH := -1, -1
	for h, r := range tr.HourlyRate {
		if r > maxR {
			maxR, maxH = r, h
		}
		if r < minR {
			minR, minH = r, h
		}
	}
	if maxR < 1.5*minR {
		t.Fatalf("azure should vary diurnally: max %v min %v", maxR, minR)
	}
	_ = maxH
	_ = minH
}

func TestTwitterSteadyRate(t *testing.T) {
	tr := gen(t, "twitter")
	m := stats.Mean(tr.HourlyRate)
	for h, r := range tr.HourlyRate {
		if math.Abs(r-m)/m > 0.10 {
			t.Fatalf("twitter hour %d rate %v deviates from mean %v", h, r, m)
		}
	}
}

func TestAlibabaHasSharpPeaks(t *testing.T) {
	tr := gen(t, "alibaba")
	base := tr.HourlyRate[0]
	for _, h := range []int{4, 6, 20} {
		if tr.HourlyRate[h] < 5*base {
			t.Fatalf("alibaba hour %d rate %v should spike above flat %v", h, tr.HourlyRate[h], base)
		}
	}
	// The hour before the first peak is flat (this is what breaks BATCH).
	if tr.HourlyRate[3] > 2*base {
		t.Fatalf("alibaba hour 3 should be flat, got %v", tr.HourlyRate[3])
	}
}

func TestIDCOrdering(t *testing.T) {
	// Fig. 5: twitter mild (~4), azure above twitter on average, alibaba and
	// synthetic much burstier.
	idc := map[string]float64{}
	for _, name := range Names() {
		tr := gen(t, name)
		vals := tr.HourlyIDC(200)
		idc[name] = stats.Mean(vals)
	}
	if idc["twitter"] < 1.5 || idc["twitter"] > 12 {
		t.Fatalf("twitter IDC = %v, want mild (~4)", idc["twitter"])
	}
	if idc["azure"] <= idc["twitter"] {
		t.Fatalf("azure IDC %v should exceed twitter %v", idc["azure"], idc["twitter"])
	}
	if idc["alibaba"] < 2*idc["twitter"] {
		t.Fatalf("alibaba IDC %v should far exceed twitter %v", idc["alibaba"], idc["twitter"])
	}
	if idc["synthetic"] < 2*idc["twitter"] {
		t.Fatalf("synthetic IDC %v should far exceed twitter %v", idc["synthetic"], idc["twitter"])
	}
}

func TestWindowAndHour(t *testing.T) {
	tr := gen(t, "twitter")
	h0 := tr.Hour(0)
	for _, ts := range h0 {
		if ts >= tr.Spec.HourSeconds {
			t.Fatalf("hour 0 contains timestamp %v", ts)
		}
	}
	h5 := tr.Hour(5)
	lo, hi := 5*tr.Spec.HourSeconds, 6*tr.Spec.HourSeconds
	for _, ts := range h5 {
		if ts < lo || ts >= hi {
			t.Fatalf("hour 5 contains timestamp %v", ts)
		}
	}
	// Windows partition the trace.
	total := 0
	for h := 0; h < tr.Spec.Hours; h++ {
		total += len(tr.Hour(h))
	}
	if total != len(tr.Timestamps) {
		t.Fatalf("hours partition %d of %d arrivals", total, len(tr.Timestamps))
	}
}

func TestRateSeries(t *testing.T) {
	tr := gen(t, "twitter")
	pts := tr.RateSeries(10)
	if len(pts) != int(tr.Duration()/10) {
		t.Fatalf("rate series length = %d", len(pts))
	}
	var sum float64
	for _, p := range pts {
		sum += p.Rate * 10
	}
	if math.Abs(sum-float64(len(tr.Timestamps))) > 1 {
		t.Fatalf("rate series mass %v vs %d arrivals", sum, len(tr.Timestamps))
	}
	if tr.RateSeries(0) != nil {
		t.Fatal("zero bin should return nil")
	}
}

func TestFirstLastHours(t *testing.T) {
	tr := gen(t, "azure")
	first := tr.FirstHours(12)
	last := tr.LastHours(12)
	if first.Spec.Hours != 12 || last.Spec.Hours != 12 {
		t.Fatal("split hours wrong")
	}
	if len(first.Timestamps)+len(last.Timestamps) != len(tr.Timestamps) {
		t.Fatalf("split loses arrivals: %d + %d != %d",
			len(first.Timestamps), len(last.Timestamps), len(tr.Timestamps))
	}
	// LastHours re-bases to zero.
	if len(last.Timestamps) > 0 && last.Timestamps[0] > last.Spec.HourSeconds {
		t.Fatalf("last hours not re-based: first ts %v", last.Timestamps[0])
	}
	if last.Timestamps[len(last.Timestamps)-1] > last.Duration() {
		t.Fatal("re-based timestamps exceed duration")
	}
	// Clamping.
	if tr.FirstHours(99).Spec.Hours != 24 {
		t.Fatal("FirstHours should clamp")
	}
	if tr.LastHours(99).Spec.Hours != 24 {
		t.Fatal("LastHours should clamp")
	}
}

func TestAzureTwitterStatisticallySimilar(t *testing.T) {
	// The paper trains on Azure and tests on Twitter without fine-tuning;
	// our generators must keep them within the same statistical family
	// (similar mean rates, overlapping IDC range) while alibaba is OOD.
	az := gen(t, "azure")
	tw := gen(t, "twitter")
	al := gen(t, "alibaba")
	azRate := stats.Mean(az.HourlyRate)
	twRate := stats.Mean(tw.HourlyRate)
	if azRate/twRate > 2 || twRate/azRate > 2 {
		t.Fatalf("azure %v and twitter %v rates should be comparable", azRate, twRate)
	}
	// Alibaba's rate variance dwarfs both.
	if stats.StdDev(al.HourlyRate) < 3*stats.StdDev(tw.HourlyRate) {
		t.Fatalf("alibaba rate variability should dwarf twitter: %v vs %v",
			stats.StdDev(al.HourlyRate), stats.StdDev(tw.HourlyRate))
	}
}
