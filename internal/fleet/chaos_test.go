// Fleet fault-isolation chaos scenarios: one class's backend melts down and
// only that class's group reacts — sibling classes' breakers stay closed
// and their entire observable series (snapshot + events) are byte-for-byte
// what they would have been with no storm anywhere. `make chaos` runs these
// under -race.
package fleet_test

import (
	"bytes"
	"testing"

	"deepbat/internal/fault"
	"deepbat/internal/fleet"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
)

// isolationPlan is the 2-class fleet under test: a strict class that will
// take the storm and a relaxed sibling on its own group (no merge groups, so
// the static assignment keeps them apart).
func isolationPlan() fleet.Plan {
	one := &fleet.ConfigSpec{MemoryMB: 2048, BatchSize: 1}
	return fleet.Plan{Classes: []fleet.ClassSpec{
		{
			Name: "strict", SLO: 0.1, Initial: one, Shards: 1,
			Resilience: &fleet.ResilienceSpec{BreakerThreshold: 2, BreakerCooldownS: 1000},
		},
		{
			Name: "relaxed", SLO: 0.5, Initial: one, Shards: 1,
		},
	}}
}

// runIsolation drives the isolation plan on a manual clock. With storm set,
// the strict class's group serves from an always-failing backend; the
// relaxed class's backend is clean either way. Returns the fleet after Stop
// plus the relaxed group's snapshot and event bytes.
func runIsolation(t *testing.T, storm bool) (*fleet.Fleet, []byte, []byte) {
	t.Helper()
	clock := &obs.ManualClock{}
	p := isolationPlan()
	f, err := fleet.New(p, fleet.Options{
		Clock:         clock,
		VirtualTimers: true,
		BackendFor: func(gi int, g fleet.Group) gateway.Backend {
			clean := gateway.SimulatedBackend{
				Profile: lambda.DefaultProfile(),
				Pricing: lambda.DefaultPricing(),
			}
			if storm && p.Classes[g.Classes[0]].Name == "strict" {
				return &fault.FaultyBackend{
					Inner:   clean,
					Inj:     fault.NewInjector(fault.Plan{Seed: 1, ErrorRate: 1}),
					Pricing: func() *lambda.Pricing { pr := lambda.DefaultPricing(); return &pr }(),
				}
			}
			return clean
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	strict, relaxed := f.ClassIndex("strict"), f.ClassIndex("relaxed")
	// Interleave the two classes' traffic so any cross-group leak would land
	// inside the relaxed class's recorded series.
	for i := 0; i < 10; i++ {
		clock.Advance(0.01)
		f.Do(strict)
		f.Do(relaxed)
	}
	f.Stop()
	var snap, ev bytes.Buffer
	rg := f.GroupGateway(f.GroupOf(relaxed))
	if err := rg.Obs().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if err := rg.Events().WriteEventsJSON(&ev); err != nil {
		t.Fatal(err)
	}
	return f, snap.Bytes(), ev.Bytes()
}

// TestFleetChaosIsolation asserts the blast radius of a backend error storm
// is exactly one function group: the strict class's breaker opens and its
// requests fail, while the relaxed class serves everything breaker-closed.
func TestFleetChaosIsolation(t *testing.T) {
	f, _, _ := runIsolation(t, true)
	strict, relaxed := f.ClassIndex("strict"), f.ClassIndex("relaxed")

	sg := f.GroupGateway(f.GroupOf(strict))
	if got := sg.Breaker(); got != gateway.BreakerOpen {
		t.Errorf("strict breaker = %v, want open", got)
	}
	if st := sg.Stats(); st.FailedRequests == 0 || st.Served != 0 {
		t.Errorf("strict stats = %+v, want all requests failed", st)
	}

	rg := f.GroupGateway(f.GroupOf(relaxed))
	if got := rg.Breaker(); got != gateway.BreakerClosed {
		t.Errorf("relaxed breaker = %v, want closed", got)
	}
	if st := rg.Stats(); st.Served != 10 || st.FailedRequests != 0 {
		t.Errorf("relaxed stats = %+v, want 10 served, 0 failed", st)
	}

	// The fleet-wide stats document folds both groups.
	fs := f.Stats()
	if fs.Served != 10 || fs.FailedRequests == 0 {
		t.Errorf("fleet stats = %+v, want 10 served and the storm's failures", fs)
	}
}

// TestFleetChaosSiblingBytesUnchanged asserts the stronger isolation
// property: the relaxed class's full metric snapshot and event stream are
// byte-identical whether or not its sibling class is storming — its
// latency/goodput series cannot even see the storm.
func TestFleetChaosSiblingBytesUnchanged(t *testing.T) {
	_, stormSnap, stormEv := runIsolation(t, true)
	_, calmSnap, calmEv := runIsolation(t, false)
	if !bytes.Equal(stormSnap, calmSnap) {
		t.Errorf("relaxed snapshot changed under sibling storm:\n storm: %s\n calm: %s", stormSnap, calmSnap)
	}
	if !bytes.Equal(stormEv, calmEv) {
		t.Errorf("relaxed events changed under sibling storm:\n storm: %s\n calm: %s", stormEv, calmEv)
	}
}

// TestFleetChaosDeterministic runs the storm scenario twice and requires
// bit-identical observability from both groups — the fleet analogue of
// faulttest.AssertDeterministic.
func TestFleetChaosDeterministic(t *testing.T) {
	run := func() [][]byte {
		f, relSnap, relEv := runIsolation(t, true)
		var snap, ev bytes.Buffer
		sg := f.GroupGateway(f.GroupOf(f.ClassIndex("strict")))
		if err := sg.Obs().WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		if err := sg.Events().WriteEventsJSON(&ev); err != nil {
			t.Fatal(err)
		}
		return [][]byte{relSnap, relEv, snap.Bytes(), ev.Bytes()}
	}
	a, b := run(), run()
	labels := []string{"relaxed snapshot", "relaxed events", "strict snapshot", "strict events"}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s differs across same-seed runs:\n%s\n%s", labels[i], a[i], b[i])
		}
	}
}

// TestFleetChaosFallbackKeepsServing covers the breaker's fallback path in
// fleet context: with a fallback configuration the storming group keeps
// answering (degraded) instead of shedding, and the sibling still cannot
// tell.
func TestFleetChaosFallbackKeepsServing(t *testing.T) {
	clock := &obs.ManualClock{}
	p := isolationPlan()
	p.Classes[0].Resilience.Fallback = &fleet.ConfigSpec{MemoryMB: 1024, BatchSize: 1}
	// Storm for 2 requests (opens the breaker), then recover.
	script := []fault.Outcome{{Err: true}, {Err: true}}
	f, err := fleet.New(p, fleet.Options{
		Clock:         clock,
		VirtualTimers: true,
		BackendFor: func(gi int, g fleet.Group) gateway.Backend {
			clean := gateway.SimulatedBackend{
				Profile: lambda.DefaultProfile(),
				Pricing: lambda.DefaultPricing(),
			}
			if p.Classes[g.Classes[0]].Name == "strict" {
				return &fault.FaultyBackend{
					Inner:   clean,
					Inj:     fault.NewInjector(fault.Plan{Script: script}),
					Pricing: func() *lambda.Pricing { pr := lambda.DefaultPricing(); return &pr }(),
				}
			}
			return clean
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	strict := f.ClassIndex("strict")
	for i := 0; i < 4; i++ {
		clock.Advance(0.01)
		f.Do(strict)
	}
	f.Stop()
	st := f.GroupGateway(f.GroupOf(strict)).Stats()
	if st.Served == 0 {
		t.Errorf("strict stats = %+v, want fallback serving after the breaker opened", st)
	}
	if st.BreakerOpens == 0 {
		t.Errorf("strict stats = %+v, want at least one breaker open", st)
	}
}
