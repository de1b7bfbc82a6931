package main

import (
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/replay"
	"deepbat/internal/workload"
)

// clockBackend charges each successful invocation's duration to the virtual
// clock, as replay.Run's backend does.
type clockBackend struct {
	inner gateway.Backend
	clock *obs.ManualClock
}

func (b clockBackend) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	dur, cost, err := b.inner.Execute(cfg, batchSize)
	if err == nil {
		b.clock.Advance(dur.Seconds())
	}
	return dur, cost, err
}

// driven is what one run of the benchmark's own virtual-time driver saw.
type driven struct {
	submit, flush, wait busyTime
	stop                time.Duration
	backend             *timingBackend
	served, failed      int
	stats               gateway.Stats
	bySize, dispatches  float64
	mallocs             uint64
}

// drive is replay.Run's request path written out against the gateway's
// exported API — New, NextFlushDeadline, FlushDue, Submit, Handle.Wait, Stop
// — so that each call can be timed from outside. With a sampler, one call in
// 64 is timed into the busy-time counters (and, when tracing, recorded as a
// span under root); without one nothing on the request path is timed.
func drive(c replay.Config, s *sampler, tr *tracer, op int) (driven, error) {
	var d driven
	clock := &obs.ManualClock{}
	var inner gateway.Backend = gateway.SimulatedBackend{Profile: lambda.DefaultProfile(), Pricing: lambda.DefaultPricing()}
	if c.Fault.Active() {
		inner = &fault.FaultyBackend{Inner: inner, Inj: fault.NewInjector(c.Fault)}
	}
	d.backend = &timingBackend{inner: clockBackend{inner: inner, clock: clock}, sample: s}
	reg := obs.NewRegistry()
	n0, _ := mallocs()
	root := tr.begin("replay.driver", "replay", -1, op)
	g, err := gateway.New(d.backend, nil, gateway.Config{
		Initial: c.Initial, SLO: c.SLO, Clock: clock, Obs: reg,
		Resilience: c.Resilience, Shards: c.Shards, VirtualTimers: true,
	})
	if err != nil {
		return d, err
	}
	flushUntil := func(t float64) {
		for {
			at, ok := g.NextFlushDeadline()
			if !ok || at > t {
				return
			}
			clock.Set(at)
			g.FlushDue()
		}
	}
	reqs := c.Trace.Reqs
	handles := make([]gateway.Handle, len(reqs))
	for i, rq := range reqs {
		if s.hit() {
			id := tr.begin("gateway.FlushDue", "gateway", root, op)
			t0 := time.Now()
			flushUntil(rq.AtS)
			d.flush.sum += time.Since(t0)
			d.flush.timed++
			tr.end(id)
		} else {
			flushUntil(rq.AtS)
		}
		clock.Set(rq.AtS)
		if s.hit() {
			id := tr.begin("gateway.Submit", "gateway", root, op)
			t0 := time.Now()
			handles[i] = g.Submit()
			d.submit.sum += time.Since(t0)
			d.submit.timed++
			tr.end(id)
		} else {
			handles[i] = g.Submit()
		}
	}
	end := c.Trace.Duration()
	if last := reqs[len(reqs)-1].AtS; last > end {
		end = last
	}
	flushUntil(end)
	if clock.Now() < end {
		clock.Set(end)
	}
	id := tr.begin("gateway.Stop", "gateway", root, op)
	t0 := time.Now()
	g.Stop()
	d.stop = time.Since(t0)
	tr.end(id)
	for _, h := range handles {
		var resp gateway.Response
		if s.hit() {
			id := tr.begin("gateway.Handle.Wait", "gateway", root, op)
			t0 := time.Now()
			resp = h.Wait()
			d.wait.sum += time.Since(t0)
			d.wait.timed++
			tr.end(id)
		} else {
			resp = h.Wait()
		}
		if resp.Error != "" {
			d.failed++
		} else {
			d.served++
		}
	}
	tr.end(root)
	n1, _ := mallocs()
	d.mallocs = n1 - n0
	d.stats = g.Stats()
	for _, series := range reg.Snapshot().Series {
		switch series.Name {
		case "gateway_dispatch_size_total":
			d.bySize = series.Value
			d.dispatches += series.Value
		case "gateway_dispatch_timeout_total", "gateway_dispatch_immediate_total", "gateway_dispatch_flush_total":
			d.dispatches += series.Value
		}
	}
	return d, nil
}

// serving: the request path of serve-replay, call by call, next to
// replay.Run on the same trace and configuration. What replay.Run spends
// beyond the driver's calls is its fold of responses into report windows.
func (p *prober) serving() error {
	spec := workload.DefaultSpec("azure")
	spec.Hours = p.e.sc.zooHours
	spec.Seed = p.e.seed
	cache := workload.NewCache()
	t, err := cache.Generate(spec)
	if err != nil {
		return err
	}
	if _, err := cache.Digest(t); err != nil {
		return err
	}
	conf := replay.Config{Trace: t, Initial: serveConfig, Shards: 1, SLO: serveSLO, Cache: cache}

	var rep replay.Report
	run := p.secs(1, func() { rep, err = replay.Run(conf) })
	if err != nil {
		return err
	}
	var plain, timed driven
	untimed := p.secs(1, func() { plain, err = drive(conf, nil, nil, 0) })
	if err != nil {
		return err
	}
	sampled := p.secs(1, func() { timed, err = drive(conf, &sampler{x: uint64(p.e.seed)}, nil, 0) })
	if err != nil {
		return err
	}
	p.traced(func(op int) { _, err = drive(conf, &sampler{x: uint64(p.e.seed)}, p.e.tr, op) })
	if err != nil {
		return err
	}
	// The driver is only worth timing if it is the system replay.Run runs.
	p.e.checks.expect(plain.served == rep.Totals.Served && plain.failed == rep.Totals.Failed &&
		plain.stats.Invocations == rep.Invocations && plain.stats.TotalCostUSD == rep.CostUSD,
		"probe: driver served %d in %d invocations for %v USD; replay.Run %d, %d, %v", plain.served, plain.stats.Invocations,
		plain.stats.TotalCostUSD, rep.Totals.Served, rep.Invocations, rep.CostUSD)

	requests := float64(len(t.Reqs))
	p.m["replay.run_ms"] = 1e3 * run
	p.m["replay.driver_ms"] = 1e3 * untimed
	p.m["replay.fold_self_ms"] = 1e3 * (run - untimed)
	p.m["replay.driver_over_run"] = untimed / run
	p.e.checks.expect(untimed < 1.1*run, "probe: the driver's calls (%.1f ms) exceed replay.Run (%.1f ms) by more than 10 %%", 1e3*untimed, 1e3*run)
	p.m["tracing.driver_overhead_pct"] = 100 * (sampled/untimed - 1)
	p.m["gateway.submit_ns"] = timed.submit.mean()
	p.m["gateway.flush_due_ns"] = timed.flush.mean()
	p.m["gateway.wait_ns"] = timed.wait.mean()
	p.m["gateway.stop_ms"] = 1e3 * timed.stop.Seconds()
	p.m["gateway.backend_execute_ns"] = float64(timed.backend.busy.Nanoseconds()) / float64(max(timed.backend.timed, 1))
	p.m["gateway.batches"] = float64(plain.backend.batches)
	p.m["gateway.mean_batch_size"] = float64(plain.served) / float64(plain.backend.batches)
	p.m["gateway.fill_frac"] = p.m["gateway.mean_batch_size"] / float64(serveConfig.BatchSize)
	p.m["gateway.dispatch_by_count_frac"] = plain.bySize / plain.dispatches
	p.m["gateway.allocs_per_req"] = float64(plain.mallocs) / requests

	// The retry path: the same trace against the flaky backend of
	// serve-replay's faulted replay.
	conf.Fault = fault.Plan{Seed: p.e.seed, ErrorRate: 0.02}
	conf.Resilience = gateway.Resilience{MaxRetries: 4}
	flaky, err := drive(conf, nil, nil, 0)
	if err != nil {
		return err
	}
	p.m["gateway.retries"] = float64(flaky.stats.Retries)
	p.e.checks.expect(flaky.stats.Retries > 0 && flaky.failed == 0, "probe: flaky backend gave %d retries and %d failed requests", flaky.stats.Retries, flaky.failed)
	return nil
}
