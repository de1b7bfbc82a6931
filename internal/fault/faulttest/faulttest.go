// Package faulttest is the deterministic chaos-test harness for the
// gateway's resilience layer. A Scenario pins a fault schedule (a
// fault.Plan, usually scripted), the gateway's resilience knobs, and a
// sequence of Steps driven on an obs.ManualClock; Run plays it against a
// real Gateway wrapped in a fault.FaultyBackend and returns every Response
// plus the final Stats and the byte-exact obs JSON snapshots.
//
// Determinism discipline: the gateway runs with Config.VirtualTimers, so
// the harness is the only driver of time. Scenarios advance the clock only
// between steps, and every batch executes on the harness goroutine — inside
// the Submit that fills it (size), the Flush step that finds it due
// (timeout), or Stop — so batches never overlap. Backoff jitter comes from a
// per-run PRNG seeded by JitterSeed. Two Runs of the same Scenario are
// therefore bit-identical, which AssertDeterministic checks down to the
// snapshot and event-stream bytes.
package faulttest

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"

	"math/rand"
)

// Step is one scripted action. Within a step the order is fixed: advance
// the clock, flush due batches, enqueue, force a decision, await responses.
type Step struct {
	// AdvanceS moves the manual clock forward by this many seconds.
	AdvanceS float64
	// Flush dispatches every batch whose timeout deadline the clock has
	// reached (FlushDue).
	Flush bool
	// Enqueue submits this many requests (their completion handles are
	// queued in arrival order).
	Enqueue int
	// Decide forces one synchronous control decision (DecideNow).
	Decide bool
	// Await receives this many responses, oldest outstanding first. Await
	// only requests whose batch has dispatched: waiting on one still
	// buffered blocks until the test timeout.
	Await int
}

// Scenario is a reproducible chaos experiment against one gateway.
type Scenario struct {
	Name string
	// Plan is the fault schedule; Script entries pin exact outcomes.
	Plan fault.Plan
	// Initial is the serving configuration. Its timeout T fires only at a
	// Flush step whose clock has reached an open batch's deadline.
	Initial lambda.Config
	// Resilience configures retries/deadline/breaker. Leave Jitter nil and
	// set JitterSeed instead, so each Run rebuilds an identical PRNG.
	Resilience gateway.Resilience
	JitterSeed int64
	SLO        float64
	WindowLen  int
	// Decide, when non-nil, is the inner decision function; Run wraps it
	// with the plan's DecideErrorRate stream.
	Decide func(window []float64) (lambda.Config, error)
	// Shards is the gateway shard count (0 = 1). Scenarios script batch
	// fills by arrival count, which presumes one queue; multi-shard
	// scenarios must opt in and route by hash.
	Shards int
	Steps  []Step
}

// Result captures everything observable about one Run.
type Result struct {
	// Responses in arrival order (including error responses).
	Responses []gateway.Response
	Stats     gateway.Stats
	Breaker   gateway.BreakerState
	// Invocations is how many invocation indices the faulty backend
	// consumed (attempts, not successes).
	Invocations uint64
	// Snapshot and Events are the byte-exact obs JSON expositions taken
	// after Stop.
	Snapshot []byte
	Events   []byte
}

// Run plays the scenario once. The gateway is stopped (flushing any open
// batch) and fully drained before the snapshots are taken.
func Run(t *testing.T, s Scenario) Result {
	t.Helper()
	clock := &obs.ManualClock{}
	inj := fault.NewInjector(s.Plan)
	backend := &fault.FaultyBackend{
		Inner: gateway.SimulatedBackend{
			Profile: lambda.DefaultProfile(),
			Pricing: lambda.DefaultPricing(),
		},
		Inj:     inj,
		Pricing: func() *lambda.Pricing { p := lambda.DefaultPricing(); return &p }(),
	}
	res := s.Resilience
	if res.Jitter == nil && s.JitterSeed != 0 {
		res.Jitter = rand.New(rand.NewSource(s.JitterSeed))
	}
	var decide gateway.DecideFunc
	if s.Decide != nil {
		decide = inj.WrapDecide(s.Decide)
	}
	g, err := gateway.New(backend, decide, gateway.Config{
		Initial:       s.Initial,
		SLO:           s.SLO,
		WindowLen:     s.WindowLen,
		Clock:         clock,
		Resilience:    res,
		Shards:        s.Shards,
		VirtualTimers: true,
	})
	if err != nil {
		t.Fatalf("scenario %q: %v", s.Name, err)
	}
	var queue []gateway.Handle
	var out Result
	await := func(n int) {
		for i := 0; i < n; i++ {
			if len(queue) == 0 {
				t.Fatalf("scenario %q: await with no outstanding requests", s.Name)
			}
			out.Responses = append(out.Responses, queue[0].Wait())
			queue = queue[1:]
		}
	}
	for _, st := range s.Steps {
		if st.AdvanceS > 0 {
			clock.Advance(st.AdvanceS)
		}
		if st.Flush {
			g.FlushDue()
		}
		for i := 0; i < st.Enqueue; i++ {
			queue = append(queue, g.Submit())
		}
		if st.Decide {
			g.DecideNow()
		}
		await(st.Await)
	}
	g.Stop() // flushes any open batch
	await(len(queue))
	out.Stats = g.Stats()
	out.Breaker = g.Breaker()
	out.Invocations = backend.Invocations()
	var snap, ev bytes.Buffer
	if err := g.Obs().WriteJSON(&snap); err != nil {
		t.Fatalf("scenario %q: snapshot: %v", s.Name, err)
	}
	if err := g.Events().WriteEventsJSON(&ev); err != nil {
		t.Fatalf("scenario %q: events: %v", s.Name, err)
	}
	out.Snapshot = snap.Bytes()
	out.Events = ev.Bytes()
	return out
}

// GoldenScenarios is the scenario set whose obs snapshot and event stream
// bytes are pinned in internal/gateway/testdata/preshard. A single gateway
// and a one-class fleet must both reproduce them. Everything here is
// deterministic: manual clock, scripted or seeded fault plans, seeded
// backoff jitter.
func GoldenScenarios() []Scenario {
	initial := lambda.Config{MemoryMB: 2048, BatchSize: 2, TimeoutS: 60}
	fallback := lambda.Config{MemoryMB: 1024, BatchSize: 1, TimeoutS: 0}
	one := lambda.Config{MemoryMB: 2048, BatchSize: 1, TimeoutS: 0}
	return []Scenario{
		{
			Name:    "golden-retry-success",
			Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}}},
			Initial: initial,
			Resilience: gateway.Resilience{
				MaxRetries: 2,
				RetryBase:  time.Millisecond,
				RetryMax:   4 * time.Millisecond,
			},
			JitterSeed: 1,
			SLO:        0.1,
			Steps:      []Step{{Enqueue: 2, Await: 2}},
		},
		{
			Name:    "golden-breaker-lifecycle",
			Plan:    fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}, {}}},
			Initial: one,
			Resilience: gateway.Resilience{
				BreakerThreshold: 2,
				BreakerCooldownS: 5,
				Fallback:         fallback,
			},
			SLO: 0.1,
			Steps: []Step{
				{Enqueue: 1, Await: 1},
				{Enqueue: 1, Await: 1},
				{Enqueue: 1, Await: 1},
				{AdvanceS: 6, Enqueue: 1, Await: 1},
			},
		},
		{
			Name:    "golden-deadline-expiry",
			Plan:    fault.Plan{},
			Initial: initial,
			Resilience: gateway.Resilience{
				RequestTimeoutS: 1,
			},
			SLO: 0.1,
			Steps: []Step{
				{Enqueue: 1},
				{AdvanceS: 2, Enqueue: 1, Await: 2},
			},
		},
		{
			Name: "golden-mixed-chaos",
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
			Steps: []Step{
				{Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
				{AdvanceS: 0.5, Enqueue: 2, Await: 2}, {Enqueue: 2, Await: 2},
				{AdvanceS: 0.5, Enqueue: 2, Await: 2},
			},
		},
	}
}

// AssertDeterministic runs the scenario twice and fails the test unless the
// two runs are bit-identical: same responses, same Stats, and byte-equal
// metric snapshot and event stream. It returns the first run for further
// assertions.
func AssertDeterministic(t *testing.T, s Scenario) Result {
	t.Helper()
	a := Run(t, s)
	b := Run(t, s)
	if !reflect.DeepEqual(a.Responses, b.Responses) {
		t.Errorf("scenario %q: responses differ across same-seed runs:\n%+v\n%+v",
			s.Name, a.Responses, b.Responses)
	}
	if a.Stats != b.Stats {
		t.Errorf("scenario %q: stats differ across same-seed runs:\n%+v\n%+v",
			s.Name, a.Stats, b.Stats)
	}
	if !bytes.Equal(a.Snapshot, b.Snapshot) {
		t.Errorf("scenario %q: metric snapshots differ across same-seed runs:\n%s\n%s",
			s.Name, a.Snapshot, b.Snapshot)
	}
	if !bytes.Equal(a.Events, b.Events) {
		t.Errorf("scenario %q: event streams differ across same-seed runs:\n%s\n%s",
			s.Name, a.Events, b.Events)
	}
	return a
}
