package gateway

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// immediateConfig is the B = 1 steady-state serving configuration the pooled
// admit-path tests run under: every Submit dispatches synchronously.
func immediateConfig(shards int) Config {
	return Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
		Shards:  shards,
	}
}

// TestShardOfFrozen pins the hash: shardOf is a pure function of the request
// ID and the published splitmix64 constants, so these routings must never
// change — a silent change would re-route live traffic and break the
// reproducibility contract of the replay sweep tables.
func TestShardOfFrozen(t *testing.T) {
	frozen := map[int][]int{
		2: {1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1},
		4: {1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1, 3, 3, 2, 1, 3},
		8: {1, 6, 5, 2, 2, 0, 7, 6, 4, 2, 5, 3, 7, 6, 5, 7},
	}
	for p, want := range frozen {
		for i, w := range want {
			if got := shardOf(uint64(i+1), p); got != w {
				t.Errorf("shardOf(%d, %d) = %d, want %d", i+1, p, got, w)
			}
		}
	}
}

// TestShardOfIgnoresGOMAXPROCS proves routing is independent of the
// scheduler configuration: the same IDs map to the same shards whatever
// GOMAXPROCS is while the process runs.
func TestShardOfIgnoresGOMAXPROCS(t *testing.T) {
	const shards = 8
	baseline := make([]int, 256)
	for id := range baseline {
		baseline[id] = shardOf(uint64(id), shards)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for id := range baseline {
			if got := shardOf(uint64(id), shards); got != baseline[id] {
				t.Fatalf("GOMAXPROCS=%d: shardOf(%d, %d) = %d, want %d",
					procs, id, shards, got, baseline[id])
			}
		}
	}
}

// TestZeroConfigIsOneShard: a Config that leaves Shards zero (setting only
// the serving configuration New requires) runs one (B, T) buffer, the one
// the controller models, however many cores the process may use.
func TestZeroConfigIsOneShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := New(fastBackend(), nil, Config{Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if got := g.Shards(); got != 1 {
		t.Fatalf("a Config with zero Shards runs %d shards under GOMAXPROCS 4, want 1", got)
	}
}

// TestShardOfCoversAllShards checks the hash actually spreads: over a modest
// ID range every shard receives traffic, and single-shard routing is always
// shard 0.
func TestShardOfCoversAllShards(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		hit := make([]int, p)
		for id := uint64(1); id <= 4096; id++ {
			hit[shardOf(id, p)]++
		}
		for sh, n := range hit {
			if n == 0 {
				t.Errorf("P=%d: shard %d received no traffic over 4096 ids", p, sh)
			}
		}
	}
	for id := uint64(0); id < 1000; id++ {
		if shardOf(id, 1) != 0 {
			t.Fatalf("shardOf(%d, 1) != 0", id)
		}
	}
}

// TestDoZeroAllocSteadyState is the tentpole acceptance check in test form:
// once the pools are warm, a full admit→enqueue→dispatch→respond cycle on
// the pooled path performs zero heap allocations.
func TestDoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	for _, shards := range []int{1, 4} {
		g, err := New(fastBackend(), nil, immediateConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			g.Do() // warm the per-shard pools
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if resp := g.Do(); resp.Error != "" {
				t.Fatalf("request failed: %s", resp.Error)
			}
		})
		g.Stop()
		if allocs != 0 {
			t.Errorf("P=%d: Do allocates %.1f objects/op at steady state, want 0", shards, allocs)
		}
	}
}

// TestOneShotWaiterBothOrders runs one waiter through every way a response
// is delivered — size dispatch, a virtual-timer FlushDue on another
// goroutine, Stop's flush, retry exhaustion and deadline expiry — once with
// Wait parked before delivery and once with Wait after it. The waiter moves
// from each finished gateway into the next one's free slot, so every
// resolution after the first runs on a recycled waiter, and every one after
// the first park on a waiter whose wake-up channel already exists. make race
// runs it under -race and -tags poolcheck, make verify at -cpu 1,2,4.
func TestOneShotWaiterBothOrders(t *testing.T) {
	failing := &flakyBackend{inner: fastBackend()}
	failing.fail.Store(true)
	submit := func(g *Gateway, _ *obs.ManualClock) []Handle { return []Handle{g.Submit()} }
	cases := []struct {
		name    string
		backend Backend
		res     Resilience
		// resolve makes the gateway deliver the open request submitted at
		// clock 0, returning the handles of any request it submits itself.
		resolve   func(g *Gateway, clock *obs.ManualClock) []Handle
		wantErr   string
		wantBatch int
	}{
		{name: "size", backend: fastBackend(), resolve: submit, wantBatch: 2},
		{name: "flush-due", backend: fastBackend(), wantBatch: 1,
			resolve: func(g *Gateway, clock *obs.ManualClock) []Handle {
				clock.Set(1)
				done := make(chan struct{})
				go func() {
					defer close(done)
					g.FlushDue()
				}()
				<-done
				return nil
			}},
		{name: "stop", backend: fastBackend(), wantBatch: 1,
			resolve: func(g *Gateway, _ *obs.ManualClock) []Handle {
				g.Stop()
				return nil
			}},
		{name: "fail-batch", backend: failing, resolve: submit,
			wantErr: ErrBackendFailed.Error(), wantBatch: 2},
		{name: "deadline", backend: fastBackend(), res: Resilience{RequestTimeoutS: 0.5},
			resolve: func(g *Gateway, clock *obs.ManualClock) []Handle {
				clock.Set(1)
				g.FlushDue()
				return nil
			},
			wantErr: ErrDeadlineExceeded.Error()},
	}
	var w *waiter
	var wake chan struct{}
	for _, tc := range cases {
		for _, parked := range []bool{true, false} {
			clock := &obs.ManualClock{}
			g, err := New(tc.backend, nil, Config{
				Initial:       lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 1},
				Clock:         clock,
				Shards:        1,
				VirtualTimers: true,
				Resilience:    tc.res,
			})
			if err != nil {
				t.Fatal(err)
			}
			if w != nil {
				g.shards[0].freeSlot.Store(w)
			}
			h := g.Submit()
			if w == nil {
				w = h.w
			} else if h.w != w {
				t.Fatalf("%s: Submit took a fresh waiter, not the recycled one", tc.name)
			}
			id := w.id
			var resp Response
			var extra []Handle
			if parked {
				got := make(chan Response, 1)
				go func() { got <- h.Wait() }()
				for w.state.Load() != waitBlocked {
					runtime.Gosched()
				}
				extra = tc.resolve(g, clock)
				resp = <-got
			} else {
				extra = tc.resolve(g, clock)
				if w.state.Load() != waitDone {
					t.Fatalf("%s: response not delivered before Wait", tc.name)
				}
				resp = h.Wait()
			}
			for _, x := range extra {
				x.Wait()
			}
			g.Stop()
			if resp.ID != id || resp.Error != tc.wantErr || resp.BatchSize != tc.wantBatch {
				t.Errorf("%s (parked=%v): response %+v, want id %d, error %q, batch size %d",
					tc.name, parked, resp, id, tc.wantErr, tc.wantBatch)
			}
			switch {
			case wake == nil:
				wake = w.ch
			case w.ch != wake:
				t.Fatalf("%s: the waiter's wake-up channel was re-made", tc.name)
			}
			if len(w.ch) != 0 || w.state.Load() != waitPending || w.resp != (Response{}) {
				t.Fatalf("%s (parked=%v): recycled waiter not clean: state %d, %d tokens, resp %+v",
					tc.name, parked, w.state.Load(), len(w.ch), w.resp)
			}
		}
	}
}

// TestPooledResponsesNeverAlias hammers the pooled path from concurrent
// clients and checks conservation and identity: every response carries the
// ID of a real request, no ID is answered twice, and the merged Stats agree
// with the totals. Run with -tags poolcheck (make race does) for the
// poison-on-put variant of the same guarantee.
func TestPooledResponsesNeverAlias(t *testing.T) {
	const clients, perClient = 8, 200
	g, err := New(fastBackend(), nil, immediateConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(chan int, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp := g.Do()
				if resp.Error != "" {
					t.Errorf("request failed: %s", resp.Error)
					return
				}
				seen <- resp.ID
			}
		}()
	}
	wg.Wait()
	g.Stop()
	close(seen)
	ids := make(map[int]bool)
	for id := range seen {
		if id < 1 || id > clients*perClient {
			t.Fatalf("response carries impossible id %d", id)
		}
		if ids[id] {
			t.Fatalf("id %d answered twice — recycled waiter aliased a previous request", id)
		}
		ids[id] = true
	}
	if len(ids) != clients*perClient {
		t.Fatalf("answered %d distinct requests, want %d", len(ids), clients*perClient)
	}
	if st := g.Stats(); st.Served != clients*perClient {
		t.Fatalf("Stats.Served = %d, want %d", st.Served, clients*perClient)
	}
}

// TestPoolsRecycleWaiters is the white-box half of the pool story: after
// traffic drains, the shards hold recycled waiters (the steady state reuses
// instead of allocating), and the free-lists never exceed their bounds.
func TestPoolsRecycleWaiters(t *testing.T) {
	g, err := New(fastBackend(), nil, immediateConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	for i := 0; i < 100; i++ {
		g.Do()
	}
	recycled := 0
	for _, s := range g.shards {
		s.mu.Lock()
		recycled += len(s.freeW)
		if s.freeSlot.Load() != nil {
			// A serial request loop parks its waiter in the lock-free
			// exchange slot rather than the list.
			recycled++
		}
		if len(s.freeW) > maxFreeWaiters || len(s.freeB) > maxFreeBatches {
			t.Errorf("shard %d free-lists exceed bounds: %d waiters, %d batches",
				s.idx, len(s.freeW), len(s.freeB))
		}
		s.mu.Unlock()
	}
	if recycled == 0 {
		t.Fatal("no waiters recycled after 100 pooled requests")
	}
}

// TestPerShardBreakerIsolation drives one shard's breaker open and checks
// isolation semantics: the open shard sheds to the fallback configuration
// while other shards keep serving the active one, and the merged state
// reported by Breaker()/Stats is Open as long as any shard is open.
func TestPerShardBreakerIsolation(t *testing.T) {
	fallback := lambda.Config{MemoryMB: 512, BatchSize: 1, TimeoutS: 0}
	fb := &flakyBackend{inner: fastBackend()}
	g, err := New(fb, nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0},
		SLO:     0.1,
		Shards:  2,
		Resilience: Resilience{
			BreakerThreshold: 1,
			BreakerCooldownS: 1e9, // never half-opens during the test
			Fallback:         fallback,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	// IDs are assigned sequentially from 1; precompute each one's route.
	route := func(id int) int { return shardOf(uint64(id), 2) }
	next := 1
	// Fail exactly one request routed to shard 0 — its breaker (threshold
	// 1, no retries) opens.
	for route(next) != 0 {
		g.Do()
		next++
	}
	fb.fail.Store(true)
	if resp := g.Do(); resp.Error == "" {
		t.Fatal("expected the tripping request to fail")
	}
	fb.fail.Store(false)
	next++

	if got := g.Breaker(); got != BreakerOpen {
		t.Fatalf("merged breaker = %v, want open", got)
	}
	if st := g.Stats(); st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("stats breaker = %q opens = %d, want open/1", st.BreakerState, st.BreakerOpens)
	}
	if s1 := g.shards[1]; BreakerState(s1.brMirror.Load()) != BreakerClosed {
		t.Fatal("shard 1's breaker tripped from shard 0's failures")
	}

	// Shard 1 still serves the active configuration; shard 0 sheds to the
	// fallback.
	sawActive, sawShed := false, false
	for i := 0; i < 16 && !(sawActive && sawShed); i++ {
		sh := route(next)
		resp := g.Do()
		next++
		if resp.Error != "" {
			t.Fatalf("request on shard %d failed: %s", sh, resp.Error)
		}
		switch sh {
		case 0:
			if resp.Config != fallback.String() {
				t.Fatalf("open shard served %q, want fallback %q", resp.Config, fallback.String())
			}
			sawShed = true
		case 1:
			if resp.Config != g.initial.str {
				t.Fatalf("healthy shard served %q, want active %q", resp.Config, g.initial.str)
			}
			sawActive = true
		}
	}
	if !sawActive || !sawShed {
		t.Fatalf("route coverage incomplete: active=%v shed=%v", sawActive, sawShed)
	}
}

// flakyBackend fails invocations while fail is set.
type flakyBackend struct {
	inner SimulatedBackend
	fail  atomic.Bool
}

func (f *flakyBackend) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	if f.fail.Load() {
		return 0, 0, ErrBackendFailed
	}
	return f.inner.Execute(cfg, batchSize)
}

// TestMultiShardTimersFlushIndependently checks each shard runs its own
// timeout batcher: with B > 1 and a short T, requests scattered across
// shards are all answered by per-shard timer flushes.
func TestMultiShardTimersFlushIndependently(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.01},
		SLO:     1,
		Shards:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	var handles []Handle
	for i := 0; i < 9; i++ {
		handles = append(handles, g.Submit())
	}
	// A shard whose timer never fired would hang its Wait until the test
	// timeout.
	for i, h := range handles {
		if resp := h.Wait(); resp.Error != "" {
			t.Fatalf("request %d failed: %s", i, resp.Error)
		}
	}
	if st := g.Stats(); st.Served != 9 {
		t.Fatalf("served %d, want 9", st.Served)
	}
}

// failFirstOfSize fails the first invocation of a batch of exactly size
// requests and serves everything else.
type failFirstOfSize struct {
	inner  SimulatedBackend
	size   int
	failed atomic.Bool
}

func (f *failFirstOfSize) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	if batchSize == f.size && f.failed.CompareAndSwap(false, true) {
		return 0, 0, ErrBackendFailed
	}
	return f.inner.Execute(cfg, batchSize)
}

// TestWallFlusherTimesOutEveryShard drives the wall-clock flusher at P = 2,
// B = 8, T = 20 ms: both shards' partial batches dispatch by timeout, the
// batch in retry backoff on one shard does not hold back the other shard's
// timeout, and Stop leaves no goroutine behind (several cycles, so one
// leaked flusher per cycle shows over the baseline).
func TestWallFlusherTimesOutEveryShard(t *testing.T) {
	const backoff = 150 * time.Millisecond
	baseline := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		g, err := New(&failFirstOfSize{inner: fastBackend(), size: 2}, nil, Config{
			Initial:    lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.02},
			SLO:        1,
			Shards:     2,
			Resilience: Resilience{MaxRetries: 1, RetryBase: backoff},
		})
		if err != nil {
			t.Fatal(err)
		}
		// IDs 2 and 4 route to shard 0, ID 3 to shard 1 (TestShardOfFrozen).
		// Shard 0's pair opens first and is the first batch takeDue visits;
		// it fails once and backs off, while shard 1's single is clean.
		g.lastID.Store(1)
		handles := []Handle{g.Submit(), g.Submit(), g.Submit()}
		var resp [3]Response
		for i, h := range handles {
			resp[i] = h.Wait()
		}
		for i, r := range resp {
			if r.Error != "" || r.LatencyMS < 19.9 {
				t.Fatalf("cycle %d: response %d = %+v, want clean and at or after the 20 ms timeout", cycle, i, r)
			}
		}
		if single := resp[1]; single.BatchSize != 1 || single.LatencyMS >= float64(backoff.Milliseconds()) {
			t.Fatalf("cycle %d: shard 1's batch %+v waited on shard 0's %v backoff", cycle, single, backoff)
		}
		for _, i := range []int{0, 2} {
			if r := resp[i]; r.BatchSize != 2 || r.LatencyMS < float64(backoff.Milliseconds()) {
				t.Fatalf("cycle %d: shard 0's response %+v, want a pair served after the backoff", cycle, r)
			}
		}
		if got := g.met.dTimeout.Value(); got != 2 || g.met.dSize.Value() != 0 {
			t.Fatalf("cycle %d: %v timeout and %v size dispatches, want 2 and 0", cycle, got, g.met.dSize.Value())
		}
		g.Stop()
		if got := g.met.dFlush.Value(); got != 0 {
			t.Fatalf("cycle %d: Stop flushed %v batches, want 0", cycle, got)
		}
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

// TestWallFlusherWakesForEarlierDeadline opens a batch under an hour-long
// timeout, so the flusher sleeps toward it, then reconfigures to 20 ms: the
// next batch, due first, must wake the flusher rather than wait its turn.
func TestWallFlusherWakesForEarlierDeadline(t *testing.T) {
	g, err := New(fastBackend(), nil, Config{
		Initial: lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 3600},
		SLO:     1,
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	late := g.Submit() // ID 1, shard 1: due in an hour
	for math.IsInf(math.Float64frombits(g.armedAt.Load()), 1) {
		runtime.Gosched() // until the flusher sleeps toward it
	}
	if err := g.Reconfigure(lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.02}); err != nil {
		t.Fatal(err)
	}
	early := g.Submit() // ID 2, shard 0: due in 20 ms
	got := make(chan Response, 1)
	go func() { got <- early.Wait() }()
	select {
	case r := <-got:
		if r.Error != "" || r.BatchSize != 1 || r.LatencyMS < 19.9 {
			t.Fatalf("early response = %+v, want a timeout-dispatched singleton", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the earlier deadline did not wake the flusher")
	}
	g.Stop()
	if r := late.Wait(); r.Error != "" {
		t.Fatalf("late response = %+v", r)
	}
	if g.met.dTimeout.Value() != 1 || g.met.dFlush.Value() != 1 {
		t.Fatalf("dispatch causes: %v timeout, %v flush; want 1 and 1",
			g.met.dTimeout.Value(), g.met.dFlush.Value())
	}
}
