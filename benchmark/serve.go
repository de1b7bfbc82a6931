package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/replay"
	"deepbat/internal/workload"
)

// The static serving point of serve-replay: a batching configuration, so the
// virtual-timer path is exercised, judged against a 0.2 s SLO.
var serveConfig = lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1}

const serveSLO = 0.2

// serveRun is the serve-replay workload, set up: the eight zoo traces of
// this seed, digested, and the nine replays one pass makes of them.
type serveRun struct {
	e       *env
	cache   *workload.Cache
	traces  []*workload.Trace
	configs []replay.Config

	first   replayTotals // what every pass must add up to
	reports [][]byte     // the first pass's reports, for byte-identity
	passes  int
	sent    int
	failed  int
	opMS    []float64
}

func newServe(e *env) (*serveRun, error) {
	r := &serveRun{e: e, cache: workload.NewCache()}
	for _, name := range workload.Names() {
		spec := workload.DefaultSpec(name)
		spec.Hours = e.sc.zooHours
		spec.Seed = e.seed
		t, err := r.cache.Generate(spec)
		if err != nil {
			return nil, err
		}
		if _, err := r.cache.Digest(t); err != nil {
			return nil, err
		}
		r.traces = append(r.traces, t)
		r.configs = append(r.configs, r.config(t))
	}
	r.configs = append(r.configs, r.faulted())
	return r, nil
}

func (r *serveRun) config(t *workload.Trace) replay.Config {
	return replay.Config{Trace: t, Initial: serveConfig, Shards: 1, SLO: serveSLO, Cache: r.cache}
}

// faulted is the pass's one replay against a flaky backend: 2 % of
// invocation attempts fail, and four retries per batch absorb them, so the
// retry path is measured and still no request fails.
func (r *serveRun) faulted() replay.Config {
	c := r.config(r.traces[0])
	c.Fault = fault.Plan{Seed: r.e.seed, ErrorRate: 0.02}
	c.Resilience = gateway.Resilience{MaxRetries: 4}
	return c
}

// replayTotals are the outcome figures of gateway replays, single or fleet:
// pure functions of (seed, code). A failed request is not goodput.
type replayTotals struct {
	sent, served, failed, good int
	cost                       float64
}

func (t *replayTotals) addRun(r replay.Report) {
	t.sent += r.Totals.Arrivals
	t.served += r.Totals.Served
	t.failed += r.Totals.Failed
	t.good += int(math.Round(r.Totals.GoodputRPS * r.Totals.EndS))
	t.cost += r.CostUSD
}

func (t *replayTotals) addFleet(r replay.FleetReport) {
	t.sent += r.Totals.Arrivals
	t.served += r.Totals.Served
	t.failed += r.Totals.Failed
	for _, c := range r.Classes { // each class judged against its own SLO
		t.good += int(math.Round(c.GoodputRPS * r.DurationS))
	}
	t.cost += r.CostUSD
}

func (t replayTotals) metrics(setupS float64) metricSet {
	return metricSet{
		"setup_s":         setupS,
		"cost_usd_per_1m": t.cost / float64(t.sent) * 1e6,
		"goodput_frac":    float64(t.good) / float64(t.sent),
	}
}

// pass replays every trace once. Open loop: requests are submitted on the
// trace's own arrival schedule, in virtual time, so the generator is never
// late and nothing queues for the driver. The modelled backend autoscales,
// so there is no saturating rate to search for: throughput is work completed
// per wall second at this input size.
func (r *serveRun) pass(i, root int) error {
	var pass replayTotals
	for k, c := range r.configs {
		id := r.e.tr.begin("replay.Run:"+c.Trace.Header.Name, "replay", root, i)
		t0 := time.Now()
		rep, err := replay.Run(c)
		dt := time.Since(t0)
		r.e.tr.end(id)
		if err != nil {
			return err
		}
		r.opMS = append(r.opMS, dt.Seconds()*1000*1e5/float64(rep.Requests))
		pass.addRun(rep)
		r.e.checks.expect(rep.Totals.Arrivals == rep.Requests && rep.Totals.Served+rep.Totals.Failed == rep.Requests,
			"serve-replay: %s sent %d, served %d + failed %d", rep.Trace, rep.Requests, rep.Totals.Served, rep.Totals.Failed)
		// The first two passes pin the byte-identity of reports.
		if r.passes < 2 {
			b, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			if r.passes == 0 {
				r.reports = append(r.reports, b)
			} else {
				r.e.checks.expect(bytes.Equal(b, r.reports[k]), "serve-replay: two replays of %s gave different reports", rep.Trace)
			}
		}
	}
	if r.passes == 0 {
		r.first = pass
	}
	r.e.checks.expect(pass == r.first, "serve-replay: pass %d totals %+v, an earlier one %+v", i, pass, r.first)
	r.passes++
	r.sent += pass.sent
	r.failed += pass.failed
	return nil
}

func (r *serveRun) reset() { r.opMS, r.sent, r.failed = nil, 0, 0 }

func runServeReplay(e *env) (*outcome, error) {
	r, setupS, err := medianSetup(e, func() (*serveRun, error) { return newServe(e) })
	if err != nil {
		return nil, err
	}
	l, err := e.measure(r)
	if err != nil {
		return nil, err
	}
	checkServe(e, r)

	out := &outcome{metrics: r.first.metrics(setupS), attempted: r.sent, failed: r.failed}
	e.finish(out, l, r.opMS, "one replay.Run of one trace, in ms per 100k requests", float64(r.sent),
		"requests replayed through the gateway (8 zoo traces + 1 faulted replay per pass)")
	out.notes = append(out.notes, fmt.Sprintf("open loop on the traces' own arrival schedule in virtual time: generator lateness is 0 by construction; %d requests per pass at %v, SLO %g s, Shards 1",
		r.first.sent, serveConfig, serveSLO))
	return out, nil
}

// checkServe verifies what the timed loop cannot: the tracev1 digest in a
// report is the digest of the trace's bytes and survives a codec round trip,
// and a failing backend without retries yields failed requests that are
// counted, unbilled to goodput, and still add up.
func checkServe(e *env, st *serveRun) {
	t := st.traces[0]
	rep, err := replay.Run(st.config(t))
	if err != nil {
		e.checks.expect(false, "serve-replay: check replay: %v", err)
		return
	}
	digest, err := workload.Digest(t)
	e.checks.expect(err == nil && fmt.Sprintf("%016x", digest) == rep.TraceDigest, "serve-replay: report digest %s, trace digest %016x (%v)", rep.TraceDigest, digest, err)
	enc, err := workload.EncodeBytes(t)
	if err == nil {
		var back *workload.Trace
		if back, err = workload.DecodeBytes(enc); err == nil {
			var d2 uint64
			d2, err = workload.Digest(back)
			e.checks.expect(err == nil && d2 == digest, "serve-replay: digest changed across encode/decode")
		}
	}
	e.checks.expect(err == nil, "serve-replay: tracev1 round trip: %v", err)

	c := st.faulted()
	c.Resilience = gateway.Resilience{}
	bad, err := replay.Run(c)
	if err != nil {
		e.checks.expect(false, "serve-replay: faulted check replay: %v", err)
		return
	}
	good := int(math.Round(bad.Totals.GoodputRPS * bad.Totals.EndS))
	e.checks.expect(bad.Totals.Failed > 0 && bad.Totals.Served+bad.Totals.Failed == bad.Requests && good <= bad.Totals.Served,
		"serve-replay: without retries sent %d, served %d, failed %d, within SLO %d", bad.Requests, bad.Totals.Served, bad.Totals.Failed, good)
}
