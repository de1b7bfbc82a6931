// The 1-class bit-identity contract: a single-class fleet plan driven
// through the fleet front door must reproduce the single gateway's
// pre-shard golden bytes exactly — same obs snapshot, same event stream.
// The goldens live in internal/gateway/testdata/preshard/ and are the same
// files TestPreShardGoldenBytes pins; this test replays the same scenarios
// through fleet.Submit(0) instead of gateway.Submit().
package fleet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// goldenStep mirrors faulttest.Step for the fleet drive loop.
type goldenStep struct {
	advanceS float64
	enqueue  int
	await    int
}

// goldenCase is one pre-shard golden scenario expressed as a 1-class plan.
type goldenCase struct {
	name  string
	plan  fault.Plan
	spec  fleet.ClassSpec
	steps []goldenStep
}

// goldenCases transliterates the gateway package's goldenScenarios: same
// fault scripts, same resilience knobs, same step schedules — the only
// change is that the configuration rides in a fleet.ClassSpec.
func goldenCases() []goldenCase {
	initial := &fleet.ConfigSpec{MemoryMB: 2048, BatchSize: 2, TimeoutS: 60}
	fallback := &fleet.ConfigSpec{MemoryMB: 1024, BatchSize: 1}
	one := &fleet.ConfigSpec{MemoryMB: 2048, BatchSize: 1}
	return []goldenCase{
		{
			name: "golden-retry-success",
			plan: fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}}},
			spec: fleet.ClassSpec{
				Name: "only", SLO: 0.1, Initial: initial, Shards: 1,
				Resilience: &fleet.ResilienceSpec{
					MaxRetries: 2, RetryBaseMS: 1, RetryMaxMS: 4, JitterSeed: 1,
				},
			},
			steps: []goldenStep{{enqueue: 2, await: 2}},
		},
		{
			name: "golden-breaker-lifecycle",
			plan: fault.Plan{Script: []fault.Outcome{{Err: true}, {Err: true}, {}, {}}},
			spec: fleet.ClassSpec{
				Name: "only", SLO: 0.1, Initial: one, Shards: 1,
				Resilience: &fleet.ResilienceSpec{
					BreakerThreshold: 2, BreakerCooldownS: 5, Fallback: fallback,
				},
			},
			steps: []goldenStep{
				{enqueue: 1, await: 1},
				{enqueue: 1, await: 1},
				{enqueue: 1, await: 1},
				{advanceS: 6, enqueue: 1, await: 1},
			},
		},
		{
			name: "golden-deadline-expiry",
			plan: fault.Plan{},
			spec: fleet.ClassSpec{
				Name: "only", SLO: 0.1, Initial: initial, Shards: 1,
				Resilience: &fleet.ResilienceSpec{RequestTimeoutS: 1},
			},
			steps: []goldenStep{
				{enqueue: 1},
				{advanceS: 2, enqueue: 1, await: 2},
			},
		},
		{
			name: "golden-mixed-chaos",
			plan: fault.Plan{
				Seed:            7,
				ErrorRate:       0.3,
				StragglerRate:   0.3,
				StragglerFactor: 3,
				ColdSpikeRate:   0.2,
				ColdSpikeS:      0.5,
			},
			spec: fleet.ClassSpec{
				Name: "only", SLO: 0.1, Initial: initial, Shards: 1,
				Resilience: &fleet.ResilienceSpec{
					MaxRetries: 5, RetryBaseMS: 0.1, RetryMaxMS: 1, JitterSeed: 99,
				},
			},
			steps: []goldenStep{
				{enqueue: 2, await: 2}, {enqueue: 2, await: 2},
				{advanceS: 0.5, enqueue: 2, await: 2}, {enqueue: 2, await: 2},
				{advanceS: 0.5, enqueue: 2, await: 2},
			},
		},
	}
}

// runGolden drives one golden case through a 1-class fleet and returns the
// group gateway's snapshot and event bytes.
func runGolden(t *testing.T, gc goldenCase) (snapshot, events []byte) {
	t.Helper()
	clock := &obs.ManualClock{}
	backend := &fault.FaultyBackend{
		Inner: gateway.SimulatedBackend{
			Profile: lambda.DefaultProfile(),
			Pricing: lambda.DefaultPricing(),
		},
		Inj:     fault.NewInjector(gc.plan),
		Pricing: func() *lambda.Pricing { p := lambda.DefaultPricing(); return &p }(),
	}
	f, err := fleet.New(fleet.Plan{Classes: []fleet.ClassSpec{gc.spec}}, fleet.Options{
		Clock:         clock,
		VirtualTimers: true,
		BackendFor:    func(int, fleet.Group) gateway.Backend { return backend },
	})
	if err != nil {
		t.Fatalf("golden %q: %v", gc.name, err)
	}
	var queue []gateway.Handle
	await := func(n int) {
		for i := 0; i < n; i++ {
			if len(queue) == 0 {
				t.Fatalf("golden %q: await with no outstanding requests", gc.name)
			}
			queue[0].Wait()
			queue = queue[1:]
		}
	}
	for _, st := range gc.steps {
		if st.advanceS > 0 {
			clock.Advance(st.advanceS)
		}
		for i := 0; i < st.enqueue; i++ {
			queue = append(queue, f.Submit(0))
		}
		await(st.await)
	}
	f.Stop()
	await(len(queue))
	var snap, ev bytes.Buffer
	if err := f.GroupGateway(0).Obs().WriteJSON(&snap); err != nil {
		t.Fatalf("golden %q: snapshot: %v", gc.name, err)
	}
	if err := f.GroupGateway(0).Events().WriteEventsJSON(&ev); err != nil {
		t.Fatalf("golden %q: events: %v", gc.name, err)
	}
	return snap.Bytes(), ev.Bytes()
}

// TestFleetSingleClassGoldenBytes replays every pre-shard golden scenario
// through a 1-class fleet and byte-compares the snapshot and event stream
// against the single gateway's golden captures. Any fleet-layer overhead —
// an extra metric, a changed default, an eager decide — fails this test.
func TestFleetSingleClassGoldenBytes(t *testing.T) {
	dir := filepath.Join("..", "gateway", "testdata", "preshard")
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			snap, ev := runGolden(t, gc)
			wantSnap, err := os.ReadFile(filepath.Join(dir, gc.name+".snapshot.json"))
			if err != nil {
				t.Fatalf("missing single-gateway golden: %v", err)
			}
			wantEv, err := os.ReadFile(filepath.Join(dir, gc.name+".events.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, wantSnap) {
				t.Errorf("fleet snapshot diverged from single-gateway bytes:\n got: %s\nwant: %s", snap, wantSnap)
			}
			if !bytes.Equal(ev, wantEv) {
				t.Errorf("fleet events diverged from single-gateway bytes:\n got: %s\nwant: %s", ev, wantEv)
			}
		})
	}
}
