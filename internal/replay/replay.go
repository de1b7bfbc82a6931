// Package replay drives the real gateway hot path (gateway.Submit / Do, not
// the discrete-event simulator) from a recorded workload trace on an
// injected manual clock.
//
// The driver (drive, below) is single-threaded and fully virtual-time, and
// it is the repo's only open-loop driver: Run puts a single gateway behind
// it, RunFleet a fleet (internal/loadgen is the closed loop on the wall
// clock). Arrivals are taken from the trace (optionally compressed by a
// time-scale factor), the gateways run with Config.VirtualTimers, so this
// driver rather than a flusher goroutine fires each batch timeout at its
// modeled instant via NextFlushDeadline/FlushDue (the same deadline test the
// wall-clock flusher runs), and a clock-advancing backend charges each
// invocation's deterministic service time to the same clock. The result:
// every latency, dispatch cause, and cost in the report is a pure function
// of (trace bytes, replay config) — the same trace file and seed produce
// byte-identical reports across runs, machines, and GOMAXPROCS values. That
// is the property `make replay-smoke` pins in CI and the scenarios
// experiment builds its tables on.
//
// In keeping with the noprint rule this package only returns Report values
// and renders them to an io.Writer on request; printing belongs to
// cmd/replay.
package replay

//deepbat:deterministic

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"deepbat/internal/fault"
	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/stats"
	"deepbat/internal/workload"
)

// Config parameterizes one replay run against a fresh gateway.
type Config struct {
	// Trace is the workload to replay (required).
	Trace *workload.Trace
	// Initial is the serving configuration (zero value: 2048 MB, B=4,
	// T=0.1 s — a batching configuration, so the virtual-timer path is
	// actually exercised).
	Initial lambda.Config
	// Shards is the gateway shard count (0 = 1). Reports are
	// deterministic at any value; they change with it, so comparable runs
	// pin it.
	Shards int
	// SLO is the latency objective goodput and violations are judged
	// against, in seconds (0 = no goodput accounting).
	SLO float64
	// TimeScale compresses trace time: arrival timestamps are divided by
	// it, so 2.0 replays the trace at twice the recorded rate against
	// unchanged service times — a load-stress knob, not a wall-time one
	// (replay is virtual-time and never sleeps). 0 means 1.0.
	TimeScale float64
	// WindowS is the report window length in replayed (scaled) seconds
	// (0 = 60).
	WindowS float64
	// Fault, when active, injects backend faults with this plan through a
	// fault.FaultyBackend (outcome of invocation i is a pure function of
	// the plan).
	Fault fault.Plan
	// Resilience configures the gateway's retries/deadlines/breaker for
	// the run (zero value: all disabled). Leave Jitter nil to keep the
	// replay deterministic.
	Resilience gateway.Resilience
	// Obs, when non-nil, is the registry the gateway records into; inject
	// one to capture the run's full metric snapshot alongside the report.
	Obs *obs.Registry
	// Cache, when non-nil, memoizes trace-derived views (notably the O(n)
	// tracev1 digest re-encode) across runs — the sweep engine's cells share
	// one so a 40-cell matrix digests each trace once, not once per cell.
	// Reports are byte-identical with or without it.
	Cache *workload.Cache
}

// Window is one report row: requests are assigned to windows by their
// (scaled) arrival time.
type Window struct {
	StartS        float64 `json:"start_s"`
	EndS          float64 `json:"end_s"`
	Arrivals      int     `json:"arrivals"`
	Served        int     `json:"served"`
	Failed        int     `json:"failed"`
	ThroughputRPS float64 `json:"throughput_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	CostUSD       float64 `json:"cost_usd"`
}

// Report is the outcome of one replay: provenance (trace name, seed, and
// tracev1 digest), the run configuration, per-window rows, and run totals.
type Report struct {
	Trace       string   `json:"trace"`
	Seed        int64    `json:"seed"`
	TraceDigest string   `json:"trace_digest"`
	Requests    int      `json:"requests"`
	Config      string   `json:"config"`
	Shards      int      `json:"shards"`
	SLO         float64  `json:"slo_s"`
	TimeScale   float64  `json:"time_scale"`
	WindowS     float64  `json:"window_s"`
	Windows     []Window `json:"windows"`
	Totals      Window   `json:"totals"`
	Invocations int      `json:"invocations"`
	CostUSD     float64  `json:"cost_usd"`
}

// clockBackend charges each successful invocation's (possibly fault-
// inflated) duration to the replay clock, so end-to-end latencies read
// batching delay + service time in virtual seconds. Failed attempts do not
// advance time: retries re-execute at the same instant, keeping the run a
// pure function of the trace and plan.
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

func (c Config) initial() lambda.Config {
	if c.Initial.Valid() {
		return c.Initial
	}
	return lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1}
}

func (c Config) windowS() float64 {
	if c.WindowS > 0 {
		return c.WindowS
	}
	return 60
}

// admit is the start of every replay: it rejects a missing or empty trace
// and returns the trace's digest (through the cache when there is one) and
// the effective time scale (0 = 1).
func admit(tr *workload.Trace, cache *workload.Cache, timeScale float64) (digest uint64, ts float64, err error) {
	if tr == nil {
		return 0, 0, errors.New("replay: Trace is required")
	}
	if len(tr.Reqs) == 0 {
		return 0, 0, errors.New("replay: trace has no requests")
	}
	if cache != nil {
		digest, err = cache.Digest(tr)
	} else {
		digest, err = workload.Digest(tr)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("replay: %w", err)
	}
	if timeScale <= 0 {
		timeScale = 1
	}
	return digest, timeScale, nil
}

// scratch is the per-run working set Run and RunFleet need besides the
// report itself: one handle and one arrival stamp per request, the latency
// accumulators the percentiles are computed from, and the per-window (or
// per-class) latency buckets. None of it survives the run, so sweeps recycle
// it through scratchPool instead of re-allocating trace-sized slices for
// every cell.
type scratch struct {
	handles []gateway.Handle
	arrive  []float64
	all     []float64
	perWin  [][]float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch sized for nreq requests, with every slice
// length-set and logically empty; reused capacity is overwritten or appended
// past, never read.
func getScratch(nreq int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.handles) < nreq {
		s.handles = make([]gateway.Handle, nreq)
	}
	if cap(s.arrive) < nreq {
		s.arrive = make([]float64, nreq)
	}
	s.handles = s.handles[:nreq]
	s.arrive = s.arrive[:nreq]
	s.all = s.all[:0]
	return s
}

// winBuckets returns nwin logically empty per-window latency buckets,
// reusing the capacity of previous runs' buckets.
func (s *scratch) winBuckets(nwin int) [][]float64 {
	if cap(s.perWin) < nwin {
		s.perWin = append(s.perWin[:cap(s.perWin)], make([][]float64, nwin-cap(s.perWin))...)
	}
	s.perWin = s.perWin[:nwin]
	for i := range s.perWin {
		s.perWin[i] = s.perWin[i][:0]
	}
	return s.perWin
}

// reportPcts are the latency percentiles every report row states.
var reportPcts = []float64{50, 95, 99}

// tails returns the p50, p95 and p99 of a scratch latency bucket from one
// in-place sort of it, so the bucket is reordered.
func tails(lat []float64) (p50, p95, p99 float64) {
	var q [3]float64
	// An empty bucket (ErrEmpty) leaves q zero, which is what a row without
	// a served request reports.
	_ = stats.PercentilesInPlace(lat, reportPcts, q[:])
	return q[0], q[1], q[2]
}

// putScratch returns the working set to the pool. Handles are cleared so the
// pool does not pin a finished run's gateway waiters.
func putScratch(s *scratch) {
	for i := range s.handles {
		s.handles[i] = gateway.Handle{}
	}
	scratchPool.Put(s)
}

// Run replays the trace and returns its report.
func Run(c Config) (Report, error) {
	digest, ts, err := admit(c.Trace, c.Cache, c.TimeScale)
	if err != nil {
		return Report{}, err
	}
	clock := &obs.ManualClock{}
	var inner gateway.Backend = gateway.SimulatedBackend{
		Profile: lambda.DefaultProfile(),
		Pricing: lambda.DefaultPricing(),
	}
	if c.Fault.Active() {
		inner = &fault.FaultyBackend{Inner: inner, Inj: fault.NewInjector(c.Fault)}
	}
	initial := c.initial()
	g, err := gateway.New(clockBackend{inner: inner, clock: clock}, nil, gateway.Config{
		Initial:       initial,
		SLO:           c.SLO,
		Clock:         clock,
		Obs:           c.Obs,
		Resilience:    c.Resilience,
		Shards:        c.Shards,
		VirtualTimers: true,
	})
	if err != nil {
		return Report{}, fmt.Errorf("replay: %w", err)
	}

	reqs := c.Trace.Reqs
	s := getScratch(len(reqs))
	defer putScratch(s)
	handles, arrive := s.handles, s.arrive
	end := drive(single{g}, clock, c.Trace, ts, nil, handles, arrive)

	// Fold responses into windows by arrival time. Every response was
	// delivered during dispatch, so each Wait reads its waiter's response
	// without blocking.
	win := c.windowS()
	n := int(end/win) + 1
	windows := make([]Window, n) // escapes into the Report; never pooled
	all := s.all
	perWin := s.winBuckets(n)
	sloMS := c.SLO * 1000
	var totals Window
	for i, h := range handles {
		resp := h.Wait()
		w := int(arrive[i] / win)
		if w >= n {
			w = n - 1
		}
		wd := &windows[w]
		wd.Arrivals++
		totals.Arrivals++
		if resp.Error != "" {
			wd.Failed++
			totals.Failed++
			continue
		}
		wd.Served++
		totals.Served++
		wd.CostUSD += resp.CostUSD
		perWin[w] = append(perWin[w], resp.LatencyMS)
		all = append(all, resp.LatencyMS)
		if sloMS <= 0 || resp.LatencyMS <= sloMS {
			wd.GoodputRPS++ // counts; converted to a rate below
			totals.GoodputRPS++
		}
	}
	for w := range windows {
		wd := &windows[w]
		wd.StartS = float64(w) * win
		wd.EndS = wd.StartS + win
		if wd.EndS > end {
			wd.EndS = end
		}
		span := wd.EndS - wd.StartS
		if span > 0 {
			wd.ThroughputRPS = float64(wd.Served) / span
			wd.GoodputRPS /= span
		} else {
			wd.GoodputRPS = 0
		}
		wd.P50MS, wd.P95MS, wd.P99MS = tails(perWin[w])
	}
	totals.StartS, totals.EndS = 0, end
	if end > 0 {
		totals.ThroughputRPS = float64(totals.Served) / end
		totals.GoodputRPS /= end
	} else {
		totals.GoodputRPS = 0
	}
	totals.P50MS, totals.P95MS, totals.P99MS = tails(all)
	s.all = all // keep capacity grown by appends for the next pooled run
	st := g.Stats()
	totals.CostUSD = st.TotalCostUSD

	return Report{
		Trace:       c.Trace.Header.Name,
		Seed:        c.Trace.Header.Seed,
		TraceDigest: fmt.Sprintf("%016x", digest),
		Requests:    len(reqs),
		Config:      initial.String(),
		Shards:      g.Shards(),
		SLO:         c.SLO,
		TimeScale:   ts,
		WindowS:     win,
		Windows:     windows,
		Totals:      totals,
		Invocations: st.Invocations,
		CostUSD:     st.TotalCostUSD,
	}, nil
}

// target is what the virtual-time driver needs of the system under replay.
// *fleet.Fleet satisfies it as is; a lone gateway does through single.
type target interface {
	Submit(class int) gateway.Handle
	NextFlushDeadline() (float64, bool)
	FlushDue() int
	Stop()
}

// single puts one gateway behind the driver: every class is the same queue.
// A 1-class fleet.Plan is not the vehicle for this, because Plan.Validate
// rejects SLO <= 0 (Run's "no goodput accounting") and a plan's resilience
// spec cannot carry a gateway.Resilience verbatim (durations become float
// milliseconds, the jitter PRNG only a seed).
type single struct{ *gateway.Gateway }

func (s single) Submit(int) gateway.Handle { return s.Gateway.Submit() }

// drive runs trace time through t: before each arrival it honours every
// virtual batch timeout due at or before it (the clock jumps to the
// deadline, the batch dispatches with causeTimeout, and the backend's
// advance is then superseded by the next Set), then stamps the arrival and
// submits on the pooled hot path. classOf maps a trace class to the class
// Submit takes (nil = every request is class 0). After the last arrival it
// flushes up to the trace horizon and stops t, which drains the remaining
// partial batches in group and shard order; every handle in handles is then
// resolved, in submission order, and arrive holds the scaled arrival stamps.
// It returns the replayed horizon.
func drive(t target, clock *obs.ManualClock, tr *workload.Trace, ts float64, classOf []int, handles []gateway.Handle, arrive []float64) float64 {
	for i, rq := range tr.Reqs {
		at := rq.AtS / ts
		flushUntil(t, clock, at)
		clock.Set(at)
		arrive[i] = at
		class := 0
		if classOf != nil {
			class = classOf[rq.Class]
		}
		handles[i] = t.Submit(class)
	}
	end := tr.Duration() / ts
	if last := arrive[len(arrive)-1]; last > end {
		end = last
	}
	flushUntil(t, clock, end)
	if clock.Now() < end {
		clock.Set(end)
	}
	t.Stop()
	return end
}

// flushUntil dispatches every virtual batch timeout due at or before until,
// in deadline order (ties broken by group, then shard, order inside FlushDue).
func flushUntil(t target, clock *obs.ManualClock, until float64) {
	for {
		d, ok := t.NextFlushDeadline()
		if !ok || d > until {
			return
		}
		clock.Set(d)
		t.FlushDue()
	}
}

// WriteText renders the report as a fixed-format text table — the byte-
// reproducible document replay-smoke compares across runs.
func (r Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"replay %s seed=%d digest=%s requests=%d config=%s shards=%d slo=%.3fs scale=%.2fx window=%.0fs\n",
		r.Trace, r.Seed, r.TraceDigest, r.Requests, r.Config, r.Shards, r.SLO, r.TimeScale, r.WindowS); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s %8s %8s %8s %10s %10s %9s %9s %9s %12s\n",
		"window_s", "arrive", "served", "failed", "thru_rps", "good_rps", "p50_ms", "p95_ms", "p99_ms", "cost_usd"); err != nil {
		return err
	}
	row := func(label string, d Window) error {
		_, err := fmt.Fprintf(w, "%10s %8d %8d %8d %10.2f %10.2f %9.2f %9.2f %9.2f %12.6f\n",
			label, d.Arrivals, d.Served, d.Failed, d.ThroughputRPS, d.GoodputRPS, d.P50MS, d.P95MS, d.P99MS, d.CostUSD)
		return err
	}
	for _, d := range r.Windows {
		if err := row(fmt.Sprintf("%.0f", d.StartS), d); err != nil {
			return err
		}
	}
	if err := row("total", r.Totals); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "invocations=%d total_cost_usd=%.6f\n", r.Invocations, r.CostUSD)
	return err
}
