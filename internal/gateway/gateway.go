// Package gateway is a real-time HTTP front-end for DeepBAT: the
// On-Top-of-Platform deployment of Fig. 2 running on the wall clock instead
// of simulated time. Inference requests POSTed to /infer are accumulated in
// a batching buffer (dispatch on batch size B or timeout T), executed on a
// pluggable serverless backend, and answered individually; a background
// control loop feeds the recent interarrival window to a decision function
// (the DeepBAT optimizer, or any other controller) and live-reconfigures
// (M, B, T).
//
// Intake is sharded: request IDs hash (seed-stable splitmix64) onto P
// independent batcher shards, each with its own queue, batch deadline,
// circuit breaker, and object pools, so admission never funnels through one
// mutex. The optimizer's configuration fans out to shards through an atomic
// pointer; per-shard tallies merge in shard order, so deterministic drivers
// see deterministic merged figures, and P = 1 reproduces the single-queue
// gateway bit for bit (see testdata/preshard). Submit/Do is the one way in —
// the HTTP handler, the chaos harness and the virtual-time drivers all use
// it — and is allocation-free at steady state.
//
// The serving path is resilient to backend and controller faults
// (internal/fault is the matching injection layer): failed invocations are
// retried with capped exponential backoff and jitter from an injected PRNG,
// per-request deadlines fail fast with a typed error, a consecutive-failure
// circuit breaker sheds to a configurable safe fallback configuration, and
// Decide errors degrade gracefully to the last good configuration. All
// latency, deadline, and breaker accounting reads an injected obs.Clock, so
// the chaos-test harness (internal/fault/faulttest) can drive the gateway on
// a manual clock and assert bit-identical behaviour across same-seed runs.
//
// Every gateway carries an obs.Registry and obs.Recorder: per-request
// latency/cost/violation series, dispatch-cause counters, retry/shed/breaker
// series, and reconfiguration events, exposed in Prometheus text format at
// /metrics and as a JSON snapshot at /metrics.json (see the README metric
// reference).
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"deepbat/internal/core"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/stats"
)

// Backend executes one batched invocation under a configuration and returns
// its duration, USD cost, and an error when the invocation failed.
// Implementations may block for the duration (real platforms) or return
// immediately (simulations). A returned error counts as a failed attempt
// against the gateway's retry budget and circuit breaker.
type Backend interface {
	Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error)
}

// SimulatedBackend models AWS Lambda: deterministic service times from a
// profile, the pay-as-you-go pricing, and an optional wall-clock scale (1.0
// sleeps for the real duration; 0 returns instantly). It never fails; wrap
// it in a fault.FaultyBackend to inject errors.
type SimulatedBackend struct {
	Profile   lambda.Profile
	Pricing   lambda.Pricing
	TimeScale float64
}

// Execute implements Backend.
func (s SimulatedBackend) Execute(cfg lambda.Config, batchSize int) (time.Duration, float64, error) {
	svc := s.Profile.ServiceTime(cfg.MemoryMB, batchSize)
	if s.TimeScale > 0 {
		time.Sleep(time.Duration(svc * s.TimeScale * float64(time.Second)))
	}
	return time.Duration(svc * float64(time.Second)), s.Pricing.InvocationCost(cfg.MemoryMB, svc), nil
}

// DecideFunc maps the recent interarrival window (seconds) to a new
// configuration.
type DecideFunc func(window []float64) (lambda.Config, error)

// Typed serving errors, surfaced to clients in Response.Error (and mapped to
// HTTP 504/502 by the /infer handler).
var (
	// ErrDeadlineExceeded fails a request whose per-request deadline
	// passed before its batch executed.
	ErrDeadlineExceeded = errors.New("gateway: request deadline exceeded")
	// ErrBackendFailed fails a batch whose retry budget was exhausted.
	ErrBackendFailed = errors.New("gateway: backend failed after retries")
)

// BreakerState enumerates the circuit-breaker states, in the order the
// gateway_breaker_state gauge reports them.
type BreakerState int

// The breaker state machine: Closed --threshold consecutive failures-->
// Open --cooldown--> HalfOpen --probe success--> Closed (probe failure
// reopens).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// Resilience configures the gateway's failure handling. The zero value
// disables everything: no retries, no deadlines, no breaker — the behaviour
// of the pre-resilience gateway.
type Resilience struct {
	// MaxRetries is how many times a failed batch invocation is retried
	// before the batch fails with ErrBackendFailed (0 = no retries).
	MaxRetries int
	// RetryBase is the backoff before the first retry; it doubles per
	// retry and is capped at RetryMax. Zero retries immediately.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Jitter, when non-nil, is the PRNG backoff jitter is drawn from:
	// each wait is scaled by a uniform factor in [0.5, 1). nil disables
	// jitter, making backoff fully deterministic.
	Jitter *rand.Rand
	// RequestTimeoutS is the per-request deadline in clock seconds
	// (0 = none). A request whose deadline passes before its batch
	// executes — or between retries — fails fast with ErrDeadlineExceeded
	// instead of holding the batch.
	RequestTimeoutS float64
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive failed invocation attempts (0 = breaker disabled).
	// With sharded intake each shard runs its own breaker; the threshold
	// counts consecutive failures per shard.
	BreakerThreshold int
	// BreakerCooldownS is how long (clock seconds) the breaker stays open
	// before admitting a half-open probe on the active configuration.
	BreakerCooldownS float64
	// Fallback is the safe configuration batches are served under while
	// the breaker is open; the zero value falls back to Config.Initial.
	Fallback lambda.Config
}

// Config parameterizes a Gateway.
type Config struct {
	// Initial is the configuration served before the first decision.
	Initial lambda.Config
	// SLO is the latency objective used for violation accounting.
	SLO float64
	// DecideEvery is the control period; zero disables the periodic loop
	// (decisions can still be forced with DecideNow).
	DecideEvery time.Duration
	// WindowLen is the number of interarrivals handed to Decide.
	WindowLen int
	// Obs, when non-nil, is the metric registry the gateway records into;
	// nil creates a private one. Injecting a shared registry lets one
	// /metrics page aggregate several components.
	Obs *obs.Registry
	// EventCap bounds the reconfiguration/error event stream
	// (0 = obs.DefaultRecorderCap).
	EventCap int
	// Clock supplies the timestamps used for latency, deadline, and
	// breaker accounting (nil = wall clock). The chaos harness injects an
	// obs.ManualClock to make whole runs bit-deterministic.
	Clock obs.Clock
	// Resilience configures retries, deadlines, and the circuit breaker.
	Resilience Resilience
	// Shards is the number of independent batcher shards intake is hashed
	// across (0 = 1: the one (B, T) buffer the controller models). Each
	// shard accumulates its own batches, so with P shards a size-B dispatch
	// needs B same-shard arrivals, not B total.
	Shards int
	// VirtualTimers means the caller drives batch timeouts through
	// NextFlushDeadline/FlushDue, so the gateway starts no flusher. It is
	// how internal/replay and the chaos harness fire each timeout at its
	// modeled instant, in shard order, on the driver's goroutine. An
	// *obs.ManualClock requires it; leave it false for wall-clock serving.
	VirtualTimers bool
}

// Stats is the JSON document served at /stats.
type Stats struct {
	Served           int           `json:"served"`
	Invocations      int           `json:"invocations"`
	Reconfigurations int           `json:"reconfigurations"`
	VCRPercent       float64       `json:"vcr_percent"`
	P95LatencyMS     float64       `json:"p95_latency_ms"`
	TotalCostUSD     float64       `json:"total_cost_usd"`
	Config           lambda.Config `json:"config"`
	// Resilience accounting. Served counts successfully answered
	// requests only; failures and deadline expiries are broken out here.
	Retries         int    `json:"retries"`
	BackendFailures int    `json:"backend_failures"`
	FailedRequests  int    `json:"failed_requests"`
	DeadlineExpired int    `json:"deadline_expired"`
	Shed            int    `json:"shed"`
	BreakerOpens    int    `json:"breaker_opens"`
	BreakerState    string `json:"breaker_state"`
	DecideErrors    int    `json:"decide_errors"`
}

// Response is the JSON answer to one inference request. Error is empty on
// success; on failure it carries the typed error string
// (ErrDeadlineExceeded, ErrBackendFailed) and the latency/cost fields
// reflect the time spent before giving up.
type Response struct {
	ID        int     `json:"id"`
	BatchSize int     `json:"batch_size"`
	LatencyMS float64 `json:"latency_ms"`
	CostUSD   float64 `json:"cost_usd"`
	Config    string  `json:"config"`
	Error     string  `json:"error,omitempty"`
}

// activeCfg pairs a serving configuration with its pre-rendered String() so
// the steady-state dispatch path never formats (= never allocates) a config
// label per response. Instances are immutable and fan out to shards through
// the gateway's atomic pointer.
type activeCfg struct {
	cfg lambda.Config
	str string
}

// metrics holds the gateway's registered series; names are documented in
// the README metric reference table. All series are gateway-wide: shards
// update them directly (counters and the pending gauge commute, so merged
// values are exact at any shard count).
type metrics struct {
	requests    *obs.Counter
	latency     *obs.Histogram
	batchSize   *obs.Histogram
	cost        *obs.Counter
	violations  *obs.Counter
	invocations *obs.Counter
	// Dispatch causes: execute increments the one its batch left by.
	dSize      *obs.Counter // batch reached B
	dTimeout   *obs.Counter // batch deadline reached
	dImmediate *obs.Counter // B = 1 or T = 0: no accumulation
	dFlush     *obs.Counter // Stop drained the open batch
	reconfigs  *obs.Counter
	decideErrs *obs.Counter
	retries    *obs.Counter
	failures   *obs.Counter
	failedReqs *obs.Counter
	expired    *obs.Counter
	shed       *obs.Counter
	brOpens    *obs.Counter
	pending    *obs.Gauge
	brState    *obs.Gauge
	cfgMemory  *obs.Gauge
	cfgBatch   *obs.Gauge
	cfgTimeout *obs.Gauge
}

// newMetrics registers the gateway series on reg. Registration errors (name
// collisions from an injected registry) propagate to New.
func newMetrics(reg *obs.Registry) (*metrics, error) {
	m := &metrics{}
	var err error
	register := func(dst **obs.Counter, name, help string) {
		if err == nil {
			*dst, err = reg.Counter(name, help)
		}
	}
	register(&m.requests, "gateway_requests_total", "inference requests served")
	register(&m.cost, "gateway_cost_usd_total", "cumulative invocation cost in USD")
	register(&m.violations, "gateway_slo_violations_total", "requests whose latency exceeded the SLO")
	register(&m.invocations, "gateway_invocations_total", "backend invocations executed")
	register(&m.reconfigs, "gateway_reconfigurations_total", "control-loop configuration changes applied")
	register(&m.decideErrs, "gateway_decide_errors_total", "control-loop decisions that failed or were invalid")
	register(&m.retries, "gateway_retries_total", "backend invocation retries")
	register(&m.failures, "gateway_backend_failures_total", "failed backend invocation attempts")
	register(&m.failedReqs, "gateway_failed_requests_total", "requests answered with an error after retry exhaustion")
	register(&m.expired, "gateway_deadline_expired_total", "requests failed fast at their per-request deadline")
	register(&m.shed, "gateway_shed_total", "requests served under the fallback configuration while the breaker was open")
	register(&m.brOpens, "gateway_breaker_opens_total", "circuit-breaker open transitions")
	register(&m.dSize, "gateway_dispatch_size_total", "batches dispatched because of size")
	register(&m.dTimeout, "gateway_dispatch_timeout_total", "batches dispatched because of timeout")
	register(&m.dImmediate, "gateway_dispatch_immediate_total", "batches dispatched because of immediate")
	register(&m.dFlush, "gateway_dispatch_flush_total", "batches dispatched because of flush")
	if err != nil {
		return nil, err
	}
	if m.latency, err = reg.Histogram("gateway_request_latency_seconds",
		"end-to-end request latency", obs.DefaultLatencyBuckets()); err != nil {
		return nil, err
	}
	if m.batchSize, err = reg.Histogram("gateway_batch_size",
		"requests per dispatched batch", []float64{1, 2, 4, 8, 16, 32, 64}); err != nil {
		return nil, err
	}
	gauge := func(dst **obs.Gauge, name, help string) {
		if err == nil {
			*dst, err = reg.Gauge(name, help)
		}
	}
	gauge(&m.pending, "gateway_pending_requests", "requests waiting in the open batch")
	gauge(&m.brState, "gateway_breaker_state", "circuit breaker state (0 closed, 1 open, 2 half-open)")
	gauge(&m.cfgMemory, "gateway_config_memory_mb", "active configuration: function memory (MB)")
	gauge(&m.cfgBatch, "gateway_config_batch_size", "active configuration: batch size B")
	gauge(&m.cfgTimeout, "gateway_config_timeout_seconds", "active configuration: batch timeout T (s)")
	if err != nil {
		return nil, err
	}
	return m, nil
}

// setConfig mirrors the active configuration into the config gauges.
func (m *metrics) setConfig(cfg lambda.Config) {
	m.cfgMemory.Set(cfg.MemoryMB)
	m.cfgBatch.Set(float64(cfg.BatchSize))
	m.cfgTimeout.Set(cfg.TimeoutS)
}

// Gateway is the running front-end. Create with New (which also starts the
// control loop), expose via Handler, stop with Stop (or its alias Close).
type Gateway struct {
	backend Backend
	decide  DecideFunc
	conf    Config
	clock   obs.Clock
	obs     *obs.Registry
	rec     *obs.Recorder
	met     *metrics

	// Immutable after New.
	initial  *activeCfg
	fallback *activeCfg // breaker fallback, resolved (zero value -> initial)
	shards   []*shard

	// active is the configuration shards capture when opening a batch;
	// decideOnce swaps it atomically so admission never takes a lock to
	// read it.
	active atomic.Pointer[activeCfg]
	lastID atomic.Int64

	// jmu guards the backoff jitter PRNG (conf.Resilience.Jitter), which
	// concurrent batch executions share.
	jmu sync.Mutex

	// pmu guards the interarrival parser, fed by every admitted request
	// and read by the control loop.
	pmu    sync.Mutex
	parser *core.WorkloadParser

	// smu guards lifecycle flags and control-loop tallies.
	smu        sync.Mutex
	started    bool
	stopped    bool
	reconfigs  int
	decideErrs int

	// armedAt is the float64 bits of the flusher's armed deadline (+Inf
	// while it scans or idles, 0 under VirtualTimers); a shard opening a
	// batch due earlier sends a token on wake.
	armedAt atomic.Uint64
	wake    chan struct{}

	stop    chan struct{}
	loopWG  sync.WaitGroup // control loop and flusher
	flushWG sync.WaitGroup // timed-out batches the flusher dispatched
}

// New builds and starts a gateway. decide may be nil (static configuration).
func New(backend Backend, decide DecideFunc, conf Config) (*Gateway, error) {
	if !conf.Initial.Valid() {
		return nil, errors.New("gateway: invalid initial configuration")
	}
	if conf.WindowLen <= 0 {
		conf.WindowLen = 64
	}
	if conf.Shards < 0 {
		return nil, errors.New("gateway: negative shard count")
	}
	if _, manual := conf.Clock.(*obs.ManualClock); manual && !conf.VirtualTimers {
		return nil, errors.New("gateway: a manual clock needs VirtualTimers (the caller drives FlushDue)")
	}
	nShards := max(conf.Shards, 1)
	reg := conf.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met, err := newMetrics(reg)
	if err != nil {
		return nil, fmt.Errorf("gateway: registering metrics: %w", err)
	}
	clock := conf.Clock
	if clock == nil {
		clock = obs.NewWallClock()
	}
	g := &Gateway{
		backend: backend,
		decide:  decide,
		conf:    conf,
		clock:   clock,
		obs:     reg,
		rec:     obs.NewRecorder(clock, conf.EventCap),
		met:     met,
		initial: &activeCfg{cfg: conf.Initial, str: conf.Initial.String()},
		parser:  core.NewWorkloadParser(conf.WindowLen),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	if !conf.VirtualTimers {
		g.armedAt.Store(math.Float64bits(math.Inf(1)))
	}
	fb := conf.Resilience.Fallback
	if !fb.Valid() {
		fb = conf.Initial
	}
	g.fallback = &activeCfg{cfg: fb, str: fb.String()}
	g.active.Store(g.initial)
	g.shards = make([]*shard, nShards)
	for i := range g.shards {
		g.shards[i] = newShard(g, i)
	}
	met.setConfig(conf.Initial)
	g.Start()
	return g, nil
}

// Start launches the control loop and, without Config.VirtualTimers, the
// batch-timeout flusher. It is called by New; calling it again is a no-op,
// as is calling it after Stop.
func (g *Gateway) Start() {
	g.smu.Lock()
	defer g.smu.Unlock()
	if g.started || g.stopped {
		return
	}
	g.started = true
	if g.decide != nil && g.conf.DecideEvery > 0 {
		g.loopWG.Add(1)
		//lint:allow goroutine-discipline long-lived control loop; joined via g.loopWG.Wait in Stop
		go g.controlLoop()
	}
	if !g.conf.VirtualTimers {
		g.loopWG.Add(1)
		//lint:allow goroutine-discipline long-lived batch-timeout flusher; joined via g.loopWG.Wait in Stop
		go g.flushLoop()
	}
}

// Stop shuts the gateway down: it stops the control loop, flushes any
// buffered requests (shard by shard, in shard order), and joins every
// goroutine the gateway spawned — the control loop, the flusher and the
// timed-out batches it dispatched (a batch still retrying skips its
// remaining backoffs once stop is signalled). Size-triggered batches run
// on their submitter's goroutine, so callers should drain their HTTP server
// first: no request may arrive concurrently with the shutdown. It is
// idempotent.
func (g *Gateway) Stop() {
	g.smu.Lock()
	if g.stopped {
		g.smu.Unlock()
		return
	}
	g.stopped = true
	g.smu.Unlock()
	close(g.stop)
	for _, s := range g.shards {
		s.mu.Lock()
		batch, ac := s.takeBatchLocked()
		s.mu.Unlock()
		if len(batch) > 0 {
			s.execute(batch, ac, g.met.dFlush)
		}
	}
	g.loopWG.Wait()
	g.flushWG.Wait()
	served := 0
	for _, s := range g.shards {
		s.mu.Lock()
		served += s.served
		s.mu.Unlock()
	}
	g.rec.Event("stop", obs.I("served", served))
}

// Obs returns the gateway's metric registry (for embedding in a larger
// exposition page or asserting on in tests).
func (g *Gateway) Obs() *obs.Registry { return g.obs }

// Events returns the gateway's event recorder (reconfigurations, decide
// errors, retries, breaker transitions, stop).
func (g *Gateway) Events() *obs.Recorder { return g.rec }

// Shards returns the number of batcher shards intake hashes across.
func (g *Gateway) Shards() int { return len(g.shards) }

// controlLoop periodically re-optimizes from the parser's window.
func (g *Gateway) controlLoop() {
	defer g.loopWG.Done()
	ticker := time.NewTicker(g.conf.DecideEvery)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
		}
		g.decideOnce()
	}
}

// DecideNow forces one synchronous control decision outside the periodic
// loop — an operational hook, and the chaos harness's deterministic way to
// drive the controller. It is a no-op without a decide function or before
// the interarrival window has filled.
func (g *Gateway) DecideNow() {
	if g.decide != nil {
		g.decideOnce()
	}
}

// decideOnce runs one decision cycle. Decide errors degrade gracefully: the
// last good configuration stays active, the failure is counted, and a
// decide_error event carries the reason. A configuration change swaps the
// atomic pointer; shards pick it up when they open their next batch.
func (g *Gateway) decideOnce() {
	g.pmu.Lock()
	full := g.parser.Full()
	window := g.parser.Window()
	g.pmu.Unlock()
	if !full {
		return
	}
	cfg, err := g.decide(window)
	if err != nil || !cfg.Valid() {
		reason := "invalid configuration " + cfg.String()
		if err != nil {
			reason = err.Error()
		}
		g.met.decideErrs.Inc()
		g.smu.Lock()
		g.decideErrs++
		g.smu.Unlock()
		g.rec.Event("decide_error", obs.S("error", reason))
		return
	}
	g.smu.Lock()
	g.applyLocked(cfg)
	g.smu.Unlock()
}

// applyLocked installs cfg as the active configuration (no-op when it is
// already active), with the same accounting the control loop performs:
// reconfiguration counters, config gauges, and a reconfigure event. The
// caller holds g.smu.
func (g *Gateway) applyLocked(cfg lambda.Config) {
	cur := g.active.Load()
	if cfg == cur.cfg {
		return
	}
	g.active.Store(&activeCfg{cfg: cfg, str: cfg.String()})
	g.reconfigs++
	g.met.reconfigs.Inc()
	g.met.setConfig(cfg)
	g.rec.Event("reconfigure",
		obs.S("from", cur.str), obs.S("to", cfg.String()))
}

// Reconfigure applies cfg as the active serving configuration outside the
// control loop — the hook an external controller (the fleet planner) uses to
// push a decision onto a running gateway. Shards pick the configuration up
// when they open their next batch, exactly as for a control-loop decision.
func (g *Gateway) Reconfigure(cfg lambda.Config) error {
	if !cfg.Valid() {
		return errors.New("gateway: invalid configuration " + cfg.String())
	}
	g.smu.Lock()
	g.applyLocked(cfg)
	g.smu.Unlock()
	return nil
}

// Config returns the active configuration.
func (g *Gateway) Config() lambda.Config {
	return g.active.Load().cfg
}

// Stats returns the current stats document (the body of GET /stats).
// Per-shard tallies are merged in shard order — a deterministic reduction,
// so a serialized driver sees identical merged figures run to run.
func (g *Gateway) Stats() Stats {
	var st Stats
	var lat []float64
	for _, s := range g.shards {
		s.mu.Lock()
		st.Served += s.served
		st.Invocations += s.invoked
		st.TotalCostUSD += s.totalCost
		st.Retries += s.retries
		st.BackendFailures += s.failures
		st.FailedRequests += s.failed
		st.DeadlineExpired += s.expired
		st.Shed += s.shedCount
		st.BreakerOpens += s.brOpens
		lat = append(lat, s.lat.buf...)
		s.mu.Unlock()
	}
	p95, _ := stats.Percentile(lat, 95)
	st.VCRPercent = stats.VCR(lat, g.conf.SLO)
	st.P95LatencyMS = p95 * 1000
	st.Config = g.active.Load().cfg
	st.BreakerState = g.Breaker().String()
	g.smu.Lock()
	st.Reconfigurations = g.reconfigs
	st.DecideErrors = g.decideErrs
	g.smu.Unlock()
	return st
}

// Breaker returns the merged circuit-breaker state across shards: Open if
// any shard's breaker is open, else HalfOpen if any is probing, else Closed.
// It reads the shards' lock-free mirrors, so a shard may call it while
// holding its own mu.
func (g *Gateway) Breaker() BreakerState {
	merged := BreakerClosed
	for _, s := range g.shards {
		switch BreakerState(s.brMirror.Load()) {
		case BreakerOpen:
			return BreakerOpen
		case BreakerHalfOpen:
			merged = BreakerHalfOpen
		}
	}
	return merged
}

// Handler returns the HTTP mux: POST /infer, GET /stats, GET /config,
// GET /metrics (Prometheus text format), GET /metrics.json (JSON snapshot
// plus the event stream).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", g.handleInfer)
	mux.HandleFunc("/stats", g.handleStats)
	mux.HandleFunc("/config", g.handleConfig)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/metrics.json", g.handleMetricsJSON)
	return mux
}

func (g *Gateway) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	resp := g.Do()
	if r.Context().Err() != nil {
		// Client went away while the request was batched; there is nobody
		// to write to. Do returned, so the pooled waiter is already back.
		return
	}
	WriteResponse(w, resp)
}

// WriteResponse writes one inference response as the /infer JSON body with
// the status its Error maps to: 200 on success, 504 for
// ErrDeadlineExceeded, 502 for any other serving error. The fleet front
// door answers through it too, so both doors speak one protocol.
func WriteResponse(w http.ResponseWriter, resp Response) {
	w.Header().Set("Content-Type", "application/json")
	switch resp.Error {
	case "":
	case ErrDeadlineExceeded.Error():
		w.WriteHeader(http.StatusGatewayTimeout)
	default:
		w.WriteHeader(http.StatusBadGateway)
	}
	// An encode error means the response is already committed; nothing
	// sensible is left to do with it.
	_ = json.NewEncoder(w).Encode(resp)
}

// observeArrival feeds the interarrival parser. Skipped entirely without a
// decide function — nothing would ever read the window, and the skip keeps
// the static-configuration admit path free of the parser lock.
func (g *Gateway) observeArrival(now float64) {
	if g.decide == nil {
		return
	}
	g.pmu.Lock()
	g.parser.Observe(now)
	g.pmu.Unlock()
}

// admitShard stamps a new request with the gateway clock and a fresh ID and
// routes it to its shard.
func (g *Gateway) admitShard() (s *shard, id int, now float64) {
	now = g.clock.Now()
	id = int(g.lastID.Add(1))
	g.observeArrival(now)
	return g.shards[shardOf(uint64(id), len(g.shards))], id, now
}

// Handle is the pooled completion handle for one Submit-ed request. Wait
// must be called exactly once; it returns the response and recycles the
// underlying waiter. The zero Handle is invalid.
type Handle struct {
	w *waiter
	s *shard
}

// Wait blocks for the response, then returns the waiter to its shard's
// free-list. The Handle must not be used again.
func (h Handle) Wait() Response {
	w := h.w
	if w.state.Load() != waitDone {
		if w.ch == nil {
			w.ch = make(chan struct{}, 1)
		}
		if w.state.CompareAndSwap(waitPending, waitBlocked) {
			<-w.ch
		}
	}
	resp := w.resp
	w.resp = Response{}
	w.state.Store(waitPending)
	h.s.putWaiter(w)
	return resp
}

// Submit is the admit path, allocation-free at steady state: it enqueues one
// request, stamped with the gateway clock, on a pooled waiter and returns its
// completion handle. When the request fills a batch (B = 1, T = 0, or the
// size trigger), the batch executes synchronously on the caller's goroutine:
// the submitting request pays for its own dispatch. The caller MUST consume
// the response via Handle.Wait (abandoning a handle leaks its waiter from the
// pool).
func (g *Gateway) Submit() Handle {
	s, id, now := g.admitShard()
	w, batch, ac, cause := s.submitPooled(id, now)
	if batch != nil {
		s.execute(batch, ac, cause)
	}
	return Handle{w: w, s: s}
}

// Do submits one request and waits for its response — the programmatic
// equivalent of POST /infer.
func (g *Gateway) Do() Response {
	return g.Submit().Wait()
}

// NextFlushDeadline returns the earliest open batch's timeout deadline
// across shards (clock seconds) and whether any batch is waiting on one. The
// flusher sleeps until it; under Config.VirtualTimers a serialized driver
// advances its manual clock to it and calls FlushDue, reproducing timeout
// dispatch without wall time.
func (g *Gateway) NextFlushDeadline() (float64, bool) {
	return g.takeDue(math.Inf(-1), nil) // nothing is due by -Inf: a pure scan
}

// FlushDue dispatches, synchronously and in shard order, every open batch
// whose timeout deadline is at or before the gateway clock's current time,
// with timeout dispatch accounting. It returns the number of batches flushed.
// It is how a Config.VirtualTimers driver fires timeouts, and the caller
// must be that gateway's sole driver; responses are delivered to the
// batches' waiters as usual.
func (g *Gateway) FlushDue() int {
	n := 0
	g.takeDue(g.clock.Now(), func(s *shard, batch []*waiter, ac *activeCfg) {
		s.execute(batch, ac, g.met.dTimeout)
		n++
	})
	return n
}

// takeDue is the one test of whether a batch has timed out: in shard order,
// it takes each open batch whose deadline is at or before now and hands it
// to dispatch outside the shard lock. It returns the earliest deadline of
// the open batches it left, and whether there is one.
func (g *Gateway) takeDue(now float64, dispatch func(s *shard, batch []*waiter, ac *activeCfg)) (next float64, ok bool) {
	for _, s := range g.shards {
		s.mu.Lock()
		if len(s.pending) == 0 || s.flushAt <= 0 || s.flushAt > now {
			if len(s.pending) > 0 && s.flushAt > 0 && (!ok || s.flushAt < next) {
				next, ok = s.flushAt, true
			}
			s.mu.Unlock()
			continue
		}
		batch, ac := s.takeBatchLocked()
		s.mu.Unlock()
		dispatch(s, batch, ac)
	}
	return next, ok
}

// flushLoop is the wall-time driver of batch timeouts: one goroutine asleep
// on one reusable timer armed to NextFlushDeadline. A shard opening a batch
// due before the armed deadline wakes it early. Each due batch executes on
// its own goroutine, so a slow or retrying batch never delays another
// shard's timeout.
func (g *Gateway) flushLoop() {
	defer g.loopWG.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	dispatch := func(s *shard, batch []*waiter, ac *activeCfg) {
		g.flushWG.Add(1)
		go func() {
			defer g.flushWG.Done()
			s.execute(batch, ac, g.met.dTimeout)
		}()
	}
	for {
		// +Inf while scanning, so a batch opened mid-scan wakes the next pass.
		g.armedAt.Store(math.Float64bits(math.Inf(1)))
		next, ok := g.takeDue(g.clock.Now(), dispatch)
		if ok {
			g.armedAt.Store(math.Float64bits(next))
			// Capped so huge T stays in Duration range; an early wake re-arms.
			timer.Reset(time.Duration(math.Min(next-g.clock.Now(), 1e9) * float64(time.Second)))
		}
		select {
		case <-g.stop:
			timer.Stop()
			return
		case <-g.wake:
			// go 1.22 timer rules: drain a fired value before the next Reset.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
	}
}

// backoff returns the wait before retry attempt (0-based): exponential from
// RetryBase, capped at RetryMax, scaled by a jitter factor in [0.5, 1)
// drawn from the injected PRNG when one is configured.
func (g *Gateway) backoff(attempt int) time.Duration {
	r := g.conf.Resilience
	if r.RetryBase <= 0 {
		return 0
	}
	d := math.Ldexp(float64(r.RetryBase), attempt) // RetryBase * 2^attempt
	if r.RetryMax > 0 && d > float64(r.RetryMax) {
		d = float64(r.RetryMax)
	}
	if r.Jitter != nil {
		g.jmu.Lock()
		d *= 0.5 + 0.5*r.Jitter.Float64()
		g.jmu.Unlock()
	}
	return time.Duration(d)
}

// sleepInterruptible waits for d or until Stop begins; retries skip their
// remaining backoff during shutdown so Stop's closing flush stays bounded.
func (g *Gateway) sleepInterruptible(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-g.stop:
	}
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	s := g.Stats()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (g *Gateway) handleConfig(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(g.Config()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := g.obs.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetricsJSON serves the JSON snapshot together with the event stream.
func (g *Gateway) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	doc := struct {
		Metrics obs.Snapshot `json:"metrics"`
		Events  []obs.Event  `json:"events"`
	}{Metrics: g.obs.Snapshot(), Events: g.rec.Events()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
