package gateway

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

func fastBackend() SimulatedBackend {
	return SimulatedBackend{
		Profile:   lambda.DefaultProfile(),
		Pricing:   lambda.DefaultPricing(),
		TimeScale: 0, // no wall-clock sleep in tests
	}
}

func postInfer(t *testing.T, url string) Response {
	t.Helper()
	resp, err := http.Post(url+"/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	valid := lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.03}
	for name, conf := range map[string]Config{
		"invalid initial": {},
		"negative shards": {Initial: valid, Shards: -1},
		// A manual clock with a flusher would race the caller's driver.
		"manual clock without virtual timers": {Initial: valid, Clock: &obs.ManualClock{}},
	} {
		if _, err := New(fastBackend(), nil, conf); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
	}
}

func TestSingleRequestFlushedByTimeout(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.03},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	start := time.Now()
	out := postInfer(t, srv.URL)
	elapsed := time.Since(start)
	if out.BatchSize != 1 {
		t.Fatalf("batch size = %d, want 1", out.BatchSize)
	}
	// The response must have waited for the ~30ms timeout.
	if elapsed < 25*time.Millisecond {
		t.Fatalf("answered in %s, before the timeout", elapsed)
	}
}

func TestBatchFillsByCount(t *testing.T) {
	// Shards: 1 — this pins the B-or-T rule of one buffer. With more shards
	// the B requests hash across them, so no single buffer reaches B; how
	// many shards a gateway should run is ROADMAP item 5(c), not this
	// test's question.
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 5},
		SLO:     0.1,
		Shards:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	results := make([]Response, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postInfer(t, srv.URL)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("batch did not fill within 3s (timeout is 5s, so count-dispatch failed)")
	}
	for _, r := range results {
		if r.BatchSize != 4 {
			t.Fatalf("batch size = %d, want 4", r.BatchSize)
		}
	}
}

func TestImmediateDispatchWithBatchOne(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 10},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	start := time.Now()
	out := postInfer(t, srv.URL)
	if time.Since(start) > time.Second {
		t.Fatal("B=1 should dispatch immediately")
	}
	if out.BatchSize != 1 {
		t.Fatalf("batch size = %d", out.BatchSize)
	}
}

func TestStatsEndpoint(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		postInfer(t, srv.URL)
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Served != 3 || s.Invocations != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalCostUSD <= 0 {
		t.Fatal("no cost recorded")
	}
	cfgResp, err := http.Get(srv.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	defer cfgResp.Body.Close()
	var cfg lambda.Config
	if err := json.NewDecoder(cfgResp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if !cfg.Valid() {
		t.Fatalf("config endpoint returned %+v", cfg)
	}
}

func TestInferRejectsGET(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestControlLoopReconfigures(t *testing.T) {
	target := lambda.Config{MemoryMB: 1024, BatchSize: 2, TimeoutS: 0.01}
	var decisions atomic.Int64
	decide := func(window []float64) (lambda.Config, error) {
		decisions.Add(1)
		if len(window) != 4 {
			t.Errorf("window length = %d", len(window))
		}
		return target, nil
	}
	g, err := New(fastBackend(), decide, Config{
		Initial:     lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:         0.1,
		DecideEvery: 20 * time.Millisecond,
		WindowLen:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	// Generate enough arrivals to fill the parser window.
	for i := 0; i < 6; i++ {
		postInfer(t, srv.URL)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if g.Config() == target {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g.Config() != target {
		t.Fatalf("gateway never reconfigured (decisions=%d)", decisions.Load())
	}
}

func TestCloseFlushesPending(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 30},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Submit()
	g.Stop()
	// Close delivered the flush synchronously; a Close that skipped the
	// pending request would hang here until the test timeout.
	if resp := h.Wait(); resp.BatchSize != 1 {
		t.Fatalf("flushed batch size = %d", resp.BatchSize)
	}
	// Double close is safe.
	g.Stop()
}

func TestConcurrentLoad(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.01},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	const n = 64
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := postInfer(t, srv.URL)
			if out.BatchSize >= 1 && out.BatchSize <= 4 {
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	if served.Load() != n {
		t.Fatalf("served %d of %d with sane batch sizes", served.Load(), n)
	}
}

func TestFlushTimeoutOnEmptyQueueCountsNothing(t *testing.T) {
	// Regression: a timeout flush over a queue a size dispatch already
	// drained must hand nothing on — not from the shared due-batch test,
	// not from FlushDue, not from execute given a nil batch. None of it
	// may reach the backend or the accounting.
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 30},
		SLO:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if _, ok := g.takeDue(math.Inf(1), func(*shard, []*waiter, *activeCfg) {
		t.Fatal("takeDue handed on a batch from an empty gateway")
	}); ok {
		t.Fatal("takeDue found a deadline on an empty gateway")
	}
	if n := g.FlushDue(); n != 0 {
		t.Fatalf("FlushDue flushed %d batches on an empty gateway", n)
	}
	g.shards[0].execute(nil, nil, g.met.dTimeout)
	s := g.Stats()
	if s.Invocations != 0 || s.Served != 0 {
		t.Fatalf("empty flush counted work: %+v", s)
	}
	if s.TotalCostUSD > 0 {
		t.Fatalf("empty flush billed cost: %+v", s)
	}
	snap := g.Obs().Snapshot()
	for _, c := range snap.Series {
		if c.Kind == obs.KindCounter && c.Value > 0 {
			t.Fatalf("counter %s = %v after empty flush", c.Name, c.Value)
		}
	}
}

// TestInferClientCancel pins the cancel contract of the one door: a client
// that gives up while its request is batched gets no response, the request
// still rides its batch (the handler lingers at most T + service time), and
// its waiter goes back to the pool — Stop joins cleanly and a later request
// is served.
func TestInferClientCancel(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.05},
		SLO:     0.1,
		Shards:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/infer", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled request got a response")
	}
	postInfer(t, srv.URL)
	srv.Close() // waits for the lingering handler
	g.Stop()
	if st := g.Stats(); st.Served != 2 {
		t.Fatalf("served %d, want 2 (the abandoned request still rides its batch)", st.Served)
	}
}
