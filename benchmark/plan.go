package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"deepbat/internal/fleet"
	"deepbat/internal/replay"
	"deepbat/internal/workload"
)

// planCell is one cell of the fleet experiment's matrix: a class count, an
// SLO spread (class i's SLO is 0.2 s x spread^i) and whether the planner may
// merge classes onto shared function groups.
type planCell struct {
	trace   *workload.Trace
	plan    fleet.Plan
	windows [][]float64
	timed   bool // the cell whose Optimize is the workload's op
}

const planBaseSLO = 0.2

func planCells(e *env, cache *workload.Cache) ([]planCell, error) {
	var cells []planCell
	for _, classes := range []int{2, 3} {
		spec := workload.DefaultSpec("corrburst")
		spec.Hours, spec.HourSeconds = e.sc.planHours, e.sc.planHourSeconds
		spec.Classes = classes
		spec.Seed = e.seed
		t, err := cache.Generate(spec)
		if err != nil {
			return nil, err
		}
		if _, err := cache.Digest(t); err != nil {
			return nil, err
		}
		windows := make([][]float64, classes)
		for _, rq := range t.Reqs {
			windows[rq.Class] = append(windows[rq.Class], rq.AtS)
		}
		for _, spread := range []float64{1, 4} {
			for _, merge := range []bool{false, true} {
				p := fleet.Plan{Merge: merge}
				for i, name := range t.Header.Classes {
					p.Classes = append(p.Classes, fleet.ClassSpec{Name: name, SLO: planBaseSLO * math.Pow(spread, float64(i)), Shards: 1})
				}
				cells = append(cells, planCell{trace: t, plan: p, windows: windows,
					timed: classes == 3 && spread == 4 && merge})
			}
		}
	}
	return cells, nil
}

// planRun is the plan workload, set up: the matrix cells over this seed's
// 2- and 3-class corrburst traces.
type planRun struct {
	e     *env
	cache *workload.Cache
	cells []planCell

	first  replayTotals // what every pass must add up to
	assign [][]byte     // the first pass's assignments, per cell
	passes int
	sent   int
	failed int
	opMS   []float64
}

func newPlan(e *env) (*planRun, error) {
	r := &planRun{e: e, cache: workload.NewCache()}
	var err error
	if r.cells, err = planCells(e, r.cache); err != nil {
		return nil, err
	}
	r.assign = make([][]byte, len(r.cells))
	return r, nil
}

// pass plans every cell of the matrix and replays the cell's trace through
// a fleet built from the plan it got.
func (r *planRun) pass(i, root int) error {
	var pass replayTotals
	for k, c := range r.cells {
		id := r.e.tr.begin("fleet.Optimize", "fleet", root, i)
		t0 := time.Now()
		a, err := fleet.Optimize(c.plan, c.windows, fleet.OptimizerConfig{Workers: 1})
		dt := time.Since(t0)
		r.e.tr.end(id)
		if err != nil {
			return err
		}
		if c.timed {
			r.opMS = append(r.opMS, dt.Seconds()*1000*1000/float64(len(c.trace.Reqs)))
		}
		id = r.e.tr.begin("replay.RunFleet", "replay", root, i)
		rep, err := replay.RunFleet(replay.FleetConfig{Trace: c.trace, Plan: c.plan, Assignment: a, Cache: r.cache})
		r.e.tr.end(id)
		if err != nil {
			return err
		}
		pass.addFleet(rep)
		r.e.checks.expect(rep.Totals.Arrivals == rep.Requests && rep.Totals.Served+rep.Totals.Failed == rep.Requests,
			"plan: cell %d sent %d, served %d + failed %d", k, rep.Requests, rep.Totals.Served, rep.Totals.Failed)
		if r.passes < 2 {
			b, err := json.Marshal(a)
			if err != nil {
				return err
			}
			if r.passes == 0 {
				r.assign[k] = b
			} else {
				r.e.checks.expect(bytes.Equal(b, r.assign[k]), "plan: cell %d planned differently on two passes", k)
			}
		}
	}
	if r.passes == 0 {
		r.first = pass
	}
	r.e.checks.expect(pass == r.first, "plan: pass %d totals %+v, an earlier one %+v", i, pass, r.first)
	r.passes++
	r.sent += pass.sent
	r.failed += pass.failed
	return nil
}

func (r *planRun) reset() { r.opMS, r.sent, r.failed = nil, 0, 0 }

func runPlan(e *env) (*outcome, error) {
	r, setupS, err := medianSetup(e, func() (*planRun, error) { return newPlan(e) })
	if err != nil {
		return nil, err
	}
	l, err := e.measure(r)
	if err != nil {
		return nil, err
	}

	// The planner's answer may not depend on its worker count.
	for k, c := range r.cells {
		a, err := fleet.Optimize(c.plan, c.windows, fleet.OptimizerConfig{Workers: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		e.checks.expect(bytes.Equal(b, r.assign[k]), "plan: cell %d planned differently at Workers 1 and %d", k, runtime.NumCPU())
	}

	out := &outcome{metrics: r.first.metrics(setupS), attempted: r.sent, failed: r.failed}
	e.finish(out, l, r.opMS, "one fleet.Optimize (Workers 1) of the 3-class, spread-4, merge-on cell, in ms per 1000 requests in its windows", float64(r.sent),
		"requests planned for and replayed through the fleet (8 matrix cells per pass)")
	out.notes = append(out.notes, fmt.Sprintf("corrburst %d h x %g s; class SLO_i = %g s x spread^i; goodput is judged per class against its own SLO; %d requests per pass",
		e.sc.planHours, e.sc.planHourSeconds, planBaseSLO, r.first.sent))
	return out, nil
}
