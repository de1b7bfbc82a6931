package lambda

import (
	"math"
	"testing"
	"testing/quick"
)

func TestServiceTimeMonotoneInMemory(t *testing.T) {
	p := DefaultProfile()
	// Fig. 1a of the paper: more memory -> lower latency (until the cap).
	prev := math.Inf(1)
	for _, m := range []float64{256, 512, 1024, 2048, 4096} {
		s := p.ServiceTime(m, 4)
		if s >= prev {
			t.Fatalf("service time not decreasing at M=%v: %v >= %v", m, s, prev)
		}
		prev = s
	}
	// Beyond the cap there is no further speedup.
	if p.ServiceTime(8192, 4) != p.ServiceTime(4096, 4) {
		t.Fatal("memory beyond MemCap should not speed up")
	}
}

func TestServiceTimeMonotoneInBatch(t *testing.T) {
	p := DefaultProfile()
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		s := p.ServiceTime(2048, b)
		if s <= prev {
			t.Fatalf("service time not increasing at B=%d", b)
		}
		prev = s
	}
}

func TestServiceTimeSublinearInBatch(t *testing.T) {
	p := DefaultProfile()
	// Doubling the batch should less-than-double the incremental work.
	s1 := p.ServiceTime(2048, 1)
	s16 := p.ServiceTime(2048, 16)
	if s16 >= 16*s1 {
		t.Fatalf("batching not sublinear: s(16)=%v vs 16*s(1)=%v", s16, 16*s1)
	}
}

func TestServiceTimePanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultProfile().ServiceTime(1024, 0)
}

func TestClampMemory(t *testing.T) {
	if ClampMemory(1) != MinMemoryMB {
		t.Fatal("low clamp")
	}
	if ClampMemory(99999) != MaxMemoryMB {
		t.Fatal("high clamp")
	}
	if ClampMemory(2048) != 2048 {
		t.Fatal("identity")
	}
}

func TestColdStartScalesWithMemory(t *testing.T) {
	p := DefaultProfile()
	if p.ColdStart(512) <= p.ColdStart(2048) {
		t.Fatal("cold start should be slower at low memory")
	}
}

func TestInvocationCost(t *testing.T) {
	pr := DefaultPricing()
	// 50 ms at 1024 MB: request fee + 0.050 * 1 GB * rate.
	got := pr.InvocationCost(1024, 0.050)
	want := 0.20/1e6 + 0.050*1.0*0.0000166667
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestBillingRoundsUp(t *testing.T) {
	pr := DefaultPricing()
	// 10.1 ms bills as 11 ms.
	got := pr.InvocationCost(1024, 0.0101)
	want := 0.20/1e6 + 0.011*1.0*0.0000166667
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rounded cost = %v, want %v", got, want)
	}
	// 10.1 ms bills as 100 ms at the 0.1 s granularity in effect when BATCH
	// was published.
	leg := DefaultPricing()
	leg.BillingGranularity = 0.1
	got = leg.InvocationCost(1024, 0.0101)
	want = 0.20/1e6 + 0.1*1.0*0.0000166667
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("legacy rounded cost = %v, want %v", got, want)
	}
}

func TestCostPerRequestAmortizesBatch(t *testing.T) {
	pr := DefaultPricing()
	p := DefaultProfile()
	// Fig. 1b of the paper: larger batches cost less per request even though
	// the batch itself runs longer.
	c1 := pr.CostPerRequest(2048, p.ServiceTime(2048, 1), 1)
	c8 := pr.CostPerRequest(2048, p.ServiceTime(2048, 8), 8)
	c32 := pr.CostPerRequest(2048, p.ServiceTime(2048, 32), 32)
	if !(c32 < c8 && c8 < c1) {
		t.Fatalf("cost per request should fall with batch size: %v %v %v", c1, c8, c32)
	}
}

func TestCostGrowsWithMemory(t *testing.T) {
	pr := DefaultPricing()
	p := DefaultProfile()
	// Beyond the CPU cap, paying for more memory is pure waste (Fig. 1a).
	cCap := pr.CostPerRequest(4096, p.ServiceTime(4096, 4), 4)
	cOver := pr.CostPerRequest(8192, p.ServiceTime(8192, 4), 4)
	if cOver <= cCap {
		t.Fatalf("over-provisioned memory should cost more: %v vs %v", cOver, cCap)
	}
}

func TestCostPerRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultPricing().CostPerRequest(1024, 0.1, 0)
}

func TestConfigValid(t *testing.T) {
	good := Config{MemoryMB: 1024, BatchSize: 4, TimeoutS: 0.1}
	if !good.Valid() {
		t.Fatal("good config rejected")
	}
	for _, bad := range []Config{
		{MemoryMB: 64, BatchSize: 4, TimeoutS: 0.1},
		{MemoryMB: 20480, BatchSize: 4, TimeoutS: 0.1},
		{MemoryMB: 1024, BatchSize: 0, TimeoutS: 0.1},
		{MemoryMB: 1024, BatchSize: 4, TimeoutS: -1},
	} {
		if bad.Valid() {
			t.Fatalf("invalid config accepted: %+v", bad)
		}
	}
	if good.String() == "" {
		t.Fatal("String empty")
	}
}

func TestGridEnumerates(t *testing.T) {
	g := DefaultGrid()
	cfgs := g.Configs()
	if len(cfgs) != g.Size() {
		t.Fatalf("Configs len %d vs Size %d", len(cfgs), g.Size())
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if !c.Valid() {
			t.Fatalf("grid produced invalid config %+v", c)
		}
		if seen[c.String()] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
}

func TestServiceTimePositiveProperty(t *testing.T) {
	p := DefaultProfile()
	f := func(mRaw float64, bRaw uint8) bool {
		m := math.Abs(math.Mod(mRaw, 12000))
		b := int(bRaw%64) + 1
		s := p.ServiceTime(m, b)
		return s > 0 && !math.IsNaN(s) && !math.IsInf(s, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllProfilesSane(t *testing.T) {
	for name, p := range Profiles {
		if p.Name != name {
			t.Fatalf("profile %q has Name %q", name, p.Name)
		}
		if p.Base <= 0 || p.PerReq <= 0 || p.Gamma <= 0 || p.Gamma > 1 {
			t.Fatalf("profile %q has bad parameters: %+v", name, p)
		}
		if p.ServiceTime(2048, 1) <= 0 {
			t.Fatalf("profile %q service time not positive", name)
		}
	}
}
