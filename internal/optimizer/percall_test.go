package optimizer

import (
	"bytes"
	"sync"
	"testing"

	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/surrogate"
)

// untrainedModel is enough wherever the test is about Decide's bookkeeping
// rather than the quality of its choice.
func untrainedModel() *surrogate.Model {
	mc := surrogate.DefaultModelConfig()
	mc.SeqLen = 16
	mc.Dropout = 0
	return surrogate.NewModel(mc)
}

// TestDecideFollowsGridAndObs pins the memoised per-call work to the fields
// it is derived from: replacing the grid, editing an axis slice in place, and
// pointing Obs at another registry (or at none) must each take effect on the
// very next Decide, exactly as on a fresh optimizer.
func TestDecideFollowsGridAndObs(t *testing.T) {
	m := untrainedModel()
	o := New(m, testGrid(), 0.1)
	check := func(tag string) {
		t.Helper()
		got, err := o.Decide(window())
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		want, err := New(m, o.Grid, o.SLO).Decide(window())
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if got.Config != want.Config || got.Evaluated != want.Evaluated || got.Evaluated != o.Grid.Size() {
			t.Fatalf("%s: decided %v over %d candidates, a fresh optimizer %v over %d (grid has %d)",
				tag, got.Config, got.Evaluated, want.Config, want.Evaluated, o.Grid.Size())
		}
	}
	check("first")
	check("unchanged grid")
	o.Grid = lambda.DefaultGrid()
	check("grid replaced")
	o.Grid.Memories[0] = 768
	check("memory axis edited in place")
	o.Grid.Batches[1] = 3
	check("batch axis edited in place")
	o.Grid.TimeoutsS = o.Grid.TimeoutsS[:2]
	check("timeout axis shortened")

	a, b := obs.NewRegistry(), obs.NewRegistry()
	decisions := func(reg *obs.Registry) float64 {
		t.Helper()
		c, err := reg.Counter("optimizer_decisions_total", "")
		if err != nil {
			t.Fatal(err)
		}
		return c.Value()
	}
	o.Obs = a
	check("obs a")
	check("obs a again")
	o.Obs = b
	check("obs b")
	o.Obs = nil
	check("obs off")
	if decisions(a) != 2 || decisions(b) != 1 {
		t.Fatalf("decisions counted: registry a %v (want 2), registry b %v (want 1)", decisions(a), decisions(b))
	}
}

// TestDecideAllocBudget holds a steady-state instrumented decision over the
// default 216-candidate grid to the two slices PredictGrid returns plus
// slack: the grid enumeration, the metric handles, the packed model and the
// inference arena are all reused.
func TestDecideAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc budget is not meaningful")
	}
	o := New(untrainedModel(), lambda.DefaultGrid(), 0.1)
	o.Obs = obs.NewRegistry()
	o.Clock = obs.NewWallClock()
	w := window()
	if _, err := o.Decide(w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := o.Decide(w); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 8
	if allocs > budget {
		t.Fatalf("Decide allocates %.0f/op over %d candidates, budget %d", allocs, o.Grid.Size(), budget)
	}
}

// TestTrainIsolatedFromConcurrentDecide trains model A while another
// goroutine hammers Decide, PredictGrid and AttentionScores on model B, and
// requires A's saved bytes to come out identical to an undisturbed run's:
// the two models share only the pooled arenas, and no path flips
// tensor.NoGrad's process-global switch; run under -race by `make race`.
func TestTrainIsolatedFromConcurrentDecide(t *testing.T) {
	grid := testGrid()
	ds := buildDataset(t, grid, 48)
	train := func() *surrogate.Model {
		m := untrainedModel()
		m.FitNormalization(ds)
		tc := surrogate.DefaultTrainConfig()
		tc.Epochs = 2
		if _, err := m.Train(ds, ds, tc); err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := train()

	b := untrainedModel()
	o := New(b, grid, 0.1)
	cfgs := lambda.DefaultGrid().Configs()
	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if _, err := o.Decide(window()); err != nil {
				t.Error(err)
				return
			}
			b.PredictGrid(window(), cfgs)
			b.AttentionScores(window())
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	got := train()
	close(stop)
	wg.Wait()

	var wb, gb bytes.Buffer
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatal("the model trained beside concurrent inference saves different bytes from the one trained alone")
	}
}
