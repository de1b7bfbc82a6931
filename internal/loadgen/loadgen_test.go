package loadgen

import (
	"testing"
	"time"
)

func TestClosedLoopServesEverything(t *testing.T) {
	r, err := RunClosed(Config{
		Shards:   2,
		SLO:      1,
		Clients:  4,
		Requests: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards != 2 {
		t.Fatalf("report header wrong: %+v", r)
	}
	if r.Served != 200 || r.Failed != 0 {
		t.Fatalf("served %d failed %d, want 200/0", r.Served, r.Failed)
	}
	if r.ThroughputRPS <= 0 || r.GoodputRPS <= 0 {
		t.Fatalf("non-positive rates: %+v", r)
	}
	if r.GoodputRPS > r.ThroughputRPS {
		t.Fatalf("goodput %v exceeds throughput %v", r.GoodputRPS, r.ThroughputRPS)
	}
	if r.TotalCostUSD <= 0 {
		t.Fatalf("no cost accounted: %+v", r)
	}
	r, err = RunClosed(Config{SLO: 1, Clients: 4, Requests: 50, Seed: 3, FaultErrorRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed == 0 || r.Served+r.Failed != 200 {
		t.Fatalf("error rate 0.5: served %d failed %d, want failures and 200 answered", r.Served, r.Failed)
	}
}

func TestClosedLoopDurationBound(t *testing.T) {
	r, err := RunClosed(Config{SLO: 1, Clients: 2, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Served == 0 {
		t.Fatal("duration-bounded run served nothing")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunClosed(Config{}); err == nil {
		t.Error("closed loop without budget should error")
	}
}
