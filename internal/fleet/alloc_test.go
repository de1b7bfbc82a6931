package fleet

import (
	"testing"

	"deepbat/internal/obs"
)

// TestDoAllocBudget holds the fleet front door to the gateway's zero-alloc
// steady state: once the pools are warm, routing a request by class adds
// no allocation to the group gateway's admit→dispatch→respond cycle.
func TestDoAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	f, err := New(Plan{Classes: []ClassSpec{{
		Name: "only", SLO: 0.1, Initial: &ConfigSpec{MemoryMB: 2048, BatchSize: 1}, Shards: 1,
	}}}, Options{Clock: &obs.ManualClock{}, VirtualTimers: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	for i := 0; i < 64; i++ {
		f.Do(0) // warm the group gateway's pools
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if resp := f.Do(0); resp.Error != "" {
			t.Fatalf("request failed: %s", resp.Error)
		}
	})
	if allocs != 0 {
		t.Errorf("Fleet.Do allocates %.1f objects/op at steady state, want 0", allocs)
	}
}
