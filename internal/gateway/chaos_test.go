// Chaos tests: the gateway's resilience layer driven by the deterministic
// fault-injection harness. Every scenario is run twice by
// faulttest.AssertDeterministic, which fails unless the two same-seed runs
// are bit-identical down to the obs JSON snapshot and event-stream bytes.
package gateway_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/fault/faulttest"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// invocationCost is the clean-path cost of one batched invocation under the
// default profile and pricing — the golden Stats below are computed from it.
func invocationCost(memoryMB float64, batchSize int) float64 {
	p := lambda.DefaultProfile()
	return lambda.DefaultPricing().InvocationCost(memoryMB, p.ServiceTime(memoryMB, batchSize))
}

func TestChaosScenarios(t *testing.T) {
	initial := lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 60}
	fallback := lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0}
	one := lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0}
	batching := lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 1}

	cases := []struct {
		s     faulttest.Scenario
		check func(t *testing.T, r faulttest.Result)
	}{
		{
			// Two injected failures, then success: the batch survives on
			// its retry budget and every request is answered cleanly.
			s: faulttest.Scenario{
				Name:    "retry-success",
				Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}}},
				Initial: initial,
				Resilience: gateway.Resilience{
					MaxRetries: 2,
					RetryBase:  time.Millisecond,
					RetryMax:   4 * time.Millisecond,
				},
				JitterSeed: 1,
				SLO:        0.1,
				Steps:      []faulttest.Step{{Enqueue: 2, Await: 2}},
			},
			check: func(t *testing.T, r faulttest.Result) {
				if len(r.Responses) != 2 {
					t.Fatalf("responses = %d", len(r.Responses))
				}
				for _, resp := range r.Responses {
					if resp.Error != "" || resp.BatchSize != 2 {
						t.Fatalf("response = %+v", resp)
					}
				}
				want := gateway.Stats{
					Served: 2, Invocations: 1,
					Retries: 2, BackendFailures: 2,
					TotalCostUSD: invocationCost(2048, 2),
					Config:       initial,
					BreakerState: "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
				if r.Invocations != 3 {
					t.Fatalf("backend consumed %d invocations, want 3", r.Invocations)
				}
			},
		},
		{
			// Three injected failures exhaust MaxRetries=2: the whole batch
			// fails with the typed terminal error and nothing is billed.
			s: faulttest.Scenario{
				Name:    "retry-exhaustion",
				Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {Err: true}}},
				Initial: initial,
				Resilience: gateway.Resilience{
					MaxRetries: 2,
					RetryBase:  time.Millisecond,
					RetryMax:   4 * time.Millisecond,
				},
				JitterSeed: 1,
				SLO:        0.1,
				Steps:      []faulttest.Step{{Enqueue: 2, Await: 2}},
			},
			check: func(t *testing.T, r faulttest.Result) {
				for _, resp := range r.Responses {
					if resp.Error != gateway.ErrBackendFailed.Error() {
						t.Fatalf("response error = %q", resp.Error)
					}
					if resp.CostUSD > 0 {
						t.Fatalf("failed request billed: %+v", resp)
					}
				}
				want := gateway.Stats{
					Retries: 2, BackendFailures: 3, FailedRequests: 2,
					Config:       initial,
					BreakerState: "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
			},
		},
		{
			// Breaker lifecycle: two consecutive failures open it, the next
			// batch is shed to the fallback configuration, and after the
			// cooldown a successful half-open probe closes it again.
			s: faulttest.Scenario{
				Name:    "breaker-open-half-open-close",
				Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}, {}}},
				Initial: one,
				Resilience: gateway.Resilience{
					BreakerThreshold: 2,
					BreakerCooldownS: 5,
					Fallback:         fallback,
				},
				SLO: 0.1,
				Steps: []faulttest.Step{
					{Enqueue: 1, Await: 1},              // fail 1
					{Enqueue: 1, Await: 1},              // fail 2 -> breaker opens
					{Enqueue: 1, Await: 1},              // open -> shed to fallback
					{AdvanceS: 6, Enqueue: 1, Await: 1}, // half-open probe -> close
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				shedResp, probeResp := r.Responses[2], r.Responses[3]
				if shedResp.Config != fallback.String() {
					t.Fatalf("shed response served under %q, want fallback %q",
						shedResp.Config, fallback.String())
				}
				if probeResp.Config != one.String() {
					t.Fatalf("probe response served under %q, want active %q",
						probeResp.Config, one.String())
				}
				want := gateway.Stats{
					Served: 2, Invocations: 2,
					BackendFailures: 2, FailedRequests: 2,
					Shed: 1, BreakerOpens: 1,
					TotalCostUSD: invocationCost(1024, 1) + invocationCost(2048, 1),
					Config:       one,
					BreakerState: "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
				for _, ev := range []string{"breaker_open", "breaker_half_open", "breaker_close"} {
					if !bytes.Contains(r.Events, []byte(ev)) {
						t.Fatalf("event stream missing %q:\n%s", ev, r.Events)
					}
				}
			},
		},
		{
			// Deadline expiry: the first request waits past its 1s deadline
			// while the batch is open; when the second arrival dispatches
			// the batch, the stale request fails fast and only the fresh
			// one reaches the backend.
			s: faulttest.Scenario{
				Name:    "deadline-partial-expiry",
				Plan:    fault.Plan{},
				Initial: initial,
				Resilience: gateway.Resilience{
					RequestTimeoutS: 1,
				},
				SLO: 0.1,
				Steps: []faulttest.Step{
					{Enqueue: 1},
					{AdvanceS: 2, Enqueue: 1, Await: 2},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				expired, served := r.Responses[0], r.Responses[1]
				if expired.Error != gateway.ErrDeadlineExceeded.Error() {
					t.Fatalf("first response = %+v, want deadline error", expired)
				}
				if expired.LatencyMS <= 1999 || expired.LatencyMS >= 2001 {
					t.Fatalf("expired latency = %gms, want ~2000", expired.LatencyMS)
				}
				if served.Error != "" || served.BatchSize != 1 {
					t.Fatalf("second response = %+v, want clean singleton", served)
				}
				want := gateway.Stats{
					Served: 1, Invocations: 1, DeadlineExpired: 1,
					TotalCostUSD: invocationCost(2048, 1),
					Config:       initial,
					BreakerState: "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
			},
		},
		{
			// Full expiry on the closing flush: both buffered requests are
			// past their deadline when Stop flushes the open batch, so the
			// backend is never invoked.
			s: faulttest.Scenario{
				Name:    "deadline-full-expiry-on-flush",
				Plan:    fault.Plan{},
				Initial: lambda.Config{MemoryMB: 2048, BatchSize: 3, TimeoutS: 60},
				Resilience: gateway.Resilience{
					RequestTimeoutS: 1,
				},
				SLO: 0.1,
				Steps: []faulttest.Step{
					{Enqueue: 2},
					{AdvanceS: 2},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				for _, resp := range r.Responses {
					if resp.Error != gateway.ErrDeadlineExceeded.Error() {
						t.Fatalf("response = %+v, want deadline error", resp)
					}
				}
				want := gateway.Stats{
					DeadlineExpired: 2,
					Config:          lambda.Config{MemoryMB: 2048, BatchSize: 3, TimeoutS: 60},
					BreakerState:    "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
				if r.Invocations != 0 {
					t.Fatalf("backend invoked %d times for fully expired batch", r.Invocations)
				}
			},
		},
		{
			// Decide errors degrade gracefully: the injected controller
			// failure keeps the last good configuration active and is
			// counted, and the next request still serves under it.
			s: faulttest.Scenario{
				Name:      "decide-error-keeps-last-good",
				Plan:      fault.Plan{DecideErrorRate: 1},
				Initial:   one,
				SLO:       0.1,
				WindowLen: 2,
				Decide: func(window []float64) (lambda.Config, error) {
					return lambda.Config{MemoryMB: 1024, BatchSize: 2, TimeoutS: 0.01}, nil
				},
				Steps: []faulttest.Step{
					{Enqueue: 3, Await: 3},
					{Decide: true},
					{Enqueue: 1, Await: 1},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				last := r.Responses[len(r.Responses)-1]
				if last.Config != one.String() {
					t.Fatalf("post-error request served under %q, want last-good %q",
						last.Config, one.String())
				}
				if r.Stats.DecideErrors != 1 || r.Stats.Reconfigurations != 0 {
					t.Fatalf("stats = %+v, want 1 decide error and 0 reconfigurations", r.Stats)
				}
				if r.Stats.Config != one {
					t.Fatalf("config drifted to %+v", r.Stats.Config)
				}
				if !bytes.Contains(r.Events, []byte("decide_error")) {
					t.Fatalf("event stream missing decide_error:\n%s", r.Events)
				}
			},
		},
		{
			// Control: with no injected decide error the same scenario
			// reconfigures — proving the degradation path above is the
			// injection, not a broken controller.
			s: faulttest.Scenario{
				Name:      "decide-applies-without-fault",
				Plan:      fault.Plan{},
				Initial:   one,
				SLO:       0.1,
				WindowLen: 2,
				Decide: func(window []float64) (lambda.Config, error) {
					return lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0}, nil
				},
				Steps: []faulttest.Step{
					{Enqueue: 3, Await: 3},
					{Decide: true},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				want := lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0}
				if r.Stats.Reconfigurations != 1 || r.Stats.Config != want {
					t.Fatalf("stats = %+v, want reconfigured to %+v", r.Stats, want)
				}
			},
		},
		{
			// Seeded mixed chaos: errors, stragglers, and cold-start spikes
			// drawn from the hash streams. The exact outcome is whatever the
			// seed dictates — the assertions are the conservation laws and
			// the bit-determinism check AssertDeterministic applies.
			s: faulttest.Scenario{
				Name: "seeded-mixed-chaos",
				Plan: fault.Plan{
					Seed:            7,
					ErrorRate:       0.3,
					StragglerRate:   0.3,
					StragglerFactor: 3,
					ColdSpikeRate:   0.2,
					ColdSpikeS:      0.5,
				},
				Initial: initial,
				Resilience: gateway.Resilience{
					MaxRetries: 5,
					RetryBase:  100 * time.Microsecond,
					RetryMax:   time.Millisecond,
				},
				JitterSeed: 99,
				SLO:        0.1,
				Steps: []faulttest.Step{
					{Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
					{Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
					{Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
					{Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
					{Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				if got := r.Stats.Served + r.Stats.FailedRequests; got != 20 {
					t.Fatalf("served %d + failed %d != 20 enqueued",
						r.Stats.Served, r.Stats.FailedRequests)
				}
				if r.Stats.BackendFailures != r.Stats.Retries+r.Stats.FailedRequests/2 {
					t.Fatalf("failure accounting inconsistent: %+v", r.Stats)
				}
			},
		},
		{
			// A partial batch leaves by timeout: nothing at half its T,
			// both requests at exactly T on the scenario's own clock.
			s: faulttest.Scenario{
				Name:    "timeout-partial-batch",
				Plan:    fault.Plan{},
				Initial: batching,
				SLO:     2,
				Steps: []faulttest.Step{
					{Enqueue: 2},
					{AdvanceS: 0.5, Flush: true},
					{AdvanceS: 0.5, Flush: true, Await: 2},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				for _, resp := range r.Responses {
					if resp.Error != "" || resp.BatchSize != 2 || resp.LatencyMS != 1000 {
						t.Fatalf("response = %+v, want a clean pair at the 1000ms timeout", resp)
					}
				}
				want := gateway.Stats{
					Served: 2, Invocations: 1, P95LatencyMS: 1000,
					TotalCostUSD: invocationCost(2048, 2),
					Config:       batching,
					BreakerState: "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
				assertDispatches(t, r, 1, 0)
			},
		},
		{
			// A timed-out batch fails once and succeeds on its retry.
			s: faulttest.Scenario{
				Name:    "timeout-retry-success",
				Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {}}},
				Initial: batching,
				Resilience: gateway.Resilience{
					MaxRetries: 1,
					RetryBase:  time.Millisecond,
				},
				JitterSeed: 1,
				SLO:        2,
				Steps: []faulttest.Step{
					{Enqueue: 2},
					{AdvanceS: 1, Flush: true, Await: 2},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				for _, resp := range r.Responses {
					if resp.Error != "" || resp.BatchSize != 2 {
						t.Fatalf("response = %+v", resp)
					}
				}
				want := gateway.Stats{
					Served: 2, Invocations: 1, P95LatencyMS: 1000,
					Retries: 1, BackendFailures: 1,
					TotalCostUSD: invocationCost(2048, 2),
					Config:       batching,
					BreakerState: "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
				if r.Invocations != 2 {
					t.Fatalf("backend consumed %d invocations, want 2", r.Invocations)
				}
				assertDispatches(t, r, 1, 0)
			},
		},
		{
			// The batch times out at 2 s with a 1.5 s request deadline:
			// the request that opened it has expired, the one that joined
			// a second later is served alone.
			s: faulttest.Scenario{
				Name:    "timeout-deadline-expiry",
				Plan:    fault.Plan{},
				Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 2},
				Resilience: gateway.Resilience{
					RequestTimeoutS: 1.5,
				},
				SLO: 2,
				Steps: []faulttest.Step{
					{Enqueue: 1},
					{AdvanceS: 1, Enqueue: 1},
					{AdvanceS: 1, Flush: true, Await: 2},
				},
			},
			check: func(t *testing.T, r faulttest.Result) {
				expired, served := r.Responses[0], r.Responses[1]
				if expired.Error != gateway.ErrDeadlineExceeded.Error() || expired.LatencyMS != 2000 {
					t.Fatalf("first response = %+v, want a deadline error at 2000ms", expired)
				}
				if served.Error != "" || served.BatchSize != 1 || served.LatencyMS != 1000 {
					t.Fatalf("second response = %+v, want a clean singleton at 1000ms", served)
				}
				want := gateway.Stats{
					Served: 1, Invocations: 1, DeadlineExpired: 1, P95LatencyMS: 1000,
					TotalCostUSD: invocationCost(2048, 1),
					Config:       lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 2},
					BreakerState: "closed",
				}
				if r.Stats != want {
					t.Fatalf("stats = %+v, want %+v", r.Stats, want)
				}
				assertDispatches(t, r, 1, 0)
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.s.Name, func(t *testing.T) {
			r := faulttest.AssertDeterministic(t, tc.s)
			tc.check(t, r)
		})
	}
}

// assertDispatches checks a run's timeout and Stop-flush dispatch counts in
// its metric snapshot.
func assertDispatches(t *testing.T, r faulttest.Result, timeout, flush float64) {
	t.Helper()
	var snap obs.Snapshot
	if err := json.Unmarshal(r.Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range snap.Series {
		got[s.Name] = s.Value
	}
	if got["gateway_dispatch_timeout_total"] != timeout || got["gateway_dispatch_flush_total"] != flush {
		t.Fatalf("dispatches: %v timeout, %v flush; want %v and %v",
			got["gateway_dispatch_timeout_total"], got["gateway_dispatch_flush_total"], timeout, flush)
	}
}

// TestChaosNoLeakedGoroutines extends the goroutine-leak regression to the
// resilience machinery: retry backoff timers and breaker bookkeeping must
// all be joined by Stop, even when batches fail mid-retry.
func TestChaosNoLeakedGoroutines(t *testing.T) {
	s := faulttest.Scenario{
		Name:    "leak-probe",
		Plan:    fault.Plan{Seed: 3, ErrorRate: 0.5},
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 60},
		Resilience: gateway.Resilience{
			MaxRetries:       3,
			RetryBase:        time.Millisecond,
			RetryMax:         4 * time.Millisecond,
			RequestTimeoutS:  10,
			BreakerThreshold: 2,
			BreakerCooldownS: 1,
			Fallback:         lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0},
		},
		JitterSeed: 5,
		SLO:        0.1,
		Steps: []faulttest.Step{
			{Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
		},
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		faulttest.Run(t, s)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestChaosSoak hammers a real-time gateway (wall clock, live batch timers)
// with concurrent clients against a seeded faulty backend. Bounded: ~1s by
// default, CHAOS_SOAK_S seconds under `make chaos`. It asserts conservation
// (every request accounted exactly once) and clean shutdown under fire.
func TestChaosSoak(t *testing.T) {
	dur := time.Second
	if v := os.Getenv("CHAOS_SOAK_S"); v != "" {
		s, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_SOAK_S = %q: %v", v, err)
		}
		dur = time.Duration(s) * time.Second
	}
	inj := fault.NewInjector(fault.Plan{
		Seed:          11,
		ErrorRate:     0.2,
		StragglerRate: 0.1,
		ColdSpikeRate: 0.05,
		ColdSpikeS:    0.001,
	})
	backend := &fault.FaultyBackend{
		Inner: gateway.SimulatedBackend{
			Profile: lambda.DefaultProfile(),
			Pricing: lambda.DefaultPricing(),
		},
		Inj: inj,
	}
	g, err := gateway.New(backend, nil, gateway.Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.002},
		SLO:     0.1,
		Resilience: gateway.Resilience{
			MaxRetries:       2,
			RetryBase:        200 * time.Microsecond,
			RetryMax:         time.Millisecond,
			Jitter:           rand.New(rand.NewSource(13)),
			RequestTimeoutS:  0.25,
			BreakerThreshold: 5,
			BreakerCooldownS: 0.01,
			Fallback:         lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	var sent, errored int64
	var mu sync.Mutex
	stopAt := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				// A request that is never answered hangs here until the
				// test timeout.
				resp := g.Do()
				mu.Lock()
				sent++
				if resp.Error != "" {
					errored++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	g.Stop()
	mu.Lock()
	defer mu.Unlock()
	st := g.Stats()
	if int64(st.Served+st.FailedRequests+st.DeadlineExpired) != sent {
		t.Fatalf("conservation violated: stats %+v vs %d sent", st, sent)
	}
	if int64(st.FailedRequests+st.DeadlineExpired) != errored {
		t.Fatalf("error accounting: stats %+v vs %d errored responses", st, errored)
	}
	if sent == 0 {
		t.Fatal("soak sent no requests")
	}
	t.Logf("soak: %d requests, %d served, %d failed, %d expired, %d retries, %d breaker opens",
		sent, st.Served, st.FailedRequests, st.DeadlineExpired, st.Retries, st.BreakerOpens)
}
