// The 1-class bit-identity contract: a single-class fleet plan driven
// through the fleet front door must reproduce the single gateway's
// pre-shard golden bytes exactly — same obs snapshot, same event stream.
// The goldens live in internal/gateway/testdata/preshard/ and are the same
// files TestPreShardGoldenBytes pins; this test replays the same scenarios
// (faulttest.GoldenScenarios) through fleet.Submit(0) instead of
// gateway.Submit().
package fleet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/fault/faulttest"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// classSpec expresses a single-gateway golden scenario as a one-class plan:
// same initial configuration, SLO and resilience knobs, in plan-file form.
func classSpec(s faulttest.Scenario) fleet.ClassSpec {
	cfg := func(c lambda.Config) *fleet.ConfigSpec {
		return &fleet.ConfigSpec{MemoryMB: c.MemoryMB, BatchSize: c.BatchSize, TimeoutS: c.TimeoutS}
	}
	r := s.Resilience
	res := &fleet.ResilienceSpec{
		MaxRetries:       r.MaxRetries,
		RetryBaseMS:      float64(r.RetryBase) / float64(time.Millisecond),
		RetryMaxMS:       float64(r.RetryMax) / float64(time.Millisecond),
		JitterSeed:       s.JitterSeed,
		RequestTimeoutS:  r.RequestTimeoutS,
		BreakerThreshold: r.BreakerThreshold,
		BreakerCooldownS: r.BreakerCooldownS,
	}
	if r.Fallback != (lambda.Config{}) {
		res.Fallback = cfg(r.Fallback)
	}
	return fleet.ClassSpec{Name: "only", SLO: s.SLO, Initial: cfg(s.Initial), Resilience: res}
}

// runGolden drives one golden scenario through a 1-class fleet and returns
// the group gateway's snapshot and event bytes.
func runGolden(t *testing.T, s faulttest.Scenario) (snapshot, events []byte) {
	t.Helper()
	clock := &obs.ManualClock{}
	backend := &fault.FaultyBackend{
		Inner: gateway.SimulatedBackend{
			Profile: lambda.DefaultProfile(),
			Pricing: lambda.DefaultPricing(),
		},
		Inj:     fault.NewInjector(s.Plan),
		Pricing: func() *lambda.Pricing { p := lambda.DefaultPricing(); return &p }(),
	}
	f, err := fleet.New(fleet.Plan{Classes: []fleet.ClassSpec{classSpec(s)}}, fleet.Options{
		Clock:         clock,
		VirtualTimers: true,
		BackendFor:    func(int, fleet.Group) gateway.Backend { return backend },
	})
	if err != nil {
		t.Fatalf("golden %q: %v", s.Name, err)
	}
	var queue []gateway.Handle
	await := func(n int) {
		for i := 0; i < n; i++ {
			if len(queue) == 0 {
				t.Fatalf("golden %q: await with no outstanding requests", s.Name)
			}
			queue[0].Wait()
			queue = queue[1:]
		}
	}
	for _, st := range s.Steps {
		if st.AdvanceS > 0 {
			clock.Advance(st.AdvanceS)
		}
		for i := 0; i < st.Enqueue; i++ {
			queue = append(queue, f.Submit(0))
		}
		await(st.Await)
	}
	f.Stop()
	await(len(queue))
	var snap, ev bytes.Buffer
	if err := f.GroupGateway(0).Obs().WriteJSON(&snap); err != nil {
		t.Fatalf("golden %q: snapshot: %v", s.Name, err)
	}
	if err := f.GroupGateway(0).Events().WriteEventsJSON(&ev); err != nil {
		t.Fatalf("golden %q: events: %v", s.Name, err)
	}
	return snap.Bytes(), ev.Bytes()
}

// TestFleetSingleClassGoldenBytes replays every pre-shard golden scenario
// through a 1-class fleet and byte-compares the snapshot and event stream
// against the single gateway's golden captures. Any fleet-layer overhead —
// an extra metric, a changed default, an eager decide — fails this test.
func TestFleetSingleClassGoldenBytes(t *testing.T) {
	dir := filepath.Join("..", "gateway", "testdata", "preshard")
	for _, s := range faulttest.GoldenScenarios() {
		t.Run(s.Name, func(t *testing.T) {
			snap, ev := runGolden(t, s)
			wantSnap, err := os.ReadFile(filepath.Join(dir, s.Name+".snapshot.json"))
			if err != nil {
				t.Fatalf("missing single-gateway golden: %v", err)
			}
			wantEv, err := os.ReadFile(filepath.Join(dir, s.Name+".events.json"))
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
