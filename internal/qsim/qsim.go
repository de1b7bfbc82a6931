// Package qsim is the discrete-event simulator of the serverless batching
// system that both the paper and BATCH use as ground truth. Requests arrive
// at given timestamps, accumulate in a buffer that dispatches either when the
// batch size B is reached or T seconds after the first request of the batch
// arrived, and execute on an autoscaling serverless function with
// deterministic, configuration-dependent service times. Per-request latency
// is buffering delay plus service time; cost follows the AWS Lambda pricing
// model. An optional warm-container pool models cold starts.
package qsim

import (
	"errors"
	"fmt"
	"math"

	"deepbat/internal/fault"
	"deepbat/internal/lambda"
	"deepbat/internal/obs"
	"deepbat/internal/stats"
)

// Options controls optional simulator behaviour.
type Options struct {
	// EnableColdStarts charges the profile's cold-start latency whenever a
	// dispatch cannot reuse a warm container.
	EnableColdStarts bool
	// KeepAlive is how long an idle container stays warm (seconds).
	KeepAlive float64
	// MaxConcurrency caps the number of simultaneously executing
	// invocations, modeling an account concurrency limit; dispatched batches
	// queue for a free slot. 0 means unlimited (pure autoscaling, the
	// paper's assumption).
	MaxConcurrency int
	// Obs, when non-nil, accumulates per-run counters and histograms
	// (requests, dispatch causes, cold starts, latency, cost). Every value
	// derives from the trace and simulated time, so snapshots are
	// byte-identical across same-seed runs.
	Obs *obs.Registry
	// Recorder, when non-nil, receives one "dispatch" event per invocation
	// (plus "cold_start" events), stamped with simulated time.
	Recorder *obs.Recorder
	// Fault, when non-nil and active, mirrors the gateway's fault-injection
	// model in simulated time: the outcome of invocation attempt k is the
	// same pure function of (Fault.Seed, k) the live fault.FaultyBackend
	// draws, so experiments and the real-time gateway agree on one fault
	// schedule. An inactive (or nil) plan leaves Run bit-identical to a
	// fault-free simulation, including its obs snapshots.
	Fault *fault.Plan
	// Retry mirrors the gateway's retry policy in simulated time: failed
	// attempts are retried up to Retry.Max times with the deterministic
	// capped-doubling backoff (no jitter — simulated time keeps the bound
	// exact). A batch that exhausts its retries fails: its requests get a
	// time-to-failure latency, zero cost, and a Result.Failed mark.
	Retry fault.Retry
	// Workers bounds the fan-out of GroundTruthBest's cost pass over the
	// grid's distinct (B, T) partitions via internal/sweep (0 = GOMAXPROCS,
	// 1 = serial). Each partition's totals are summed by one worker and land
	// at the partition's own index, so the selected config and its Score are
	// bit-identical at any worker count; the tail walk after it is serial.
	// Searches that must Run every config (cold starts, a concurrency cap,
	// an active fault plan, an Obs or Recorder sink) are serial: platform
	// state and shared sinks do not split across workers.
	Workers int
}

// Simulator evaluates configurations against arrival traces.
type Simulator struct {
	Profile lambda.Profile
	Pricing lambda.Pricing
	Opts    Options
}

// New returns a simulator over the given profile and pricing.
func New(p lambda.Profile, pr lambda.Pricing) *Simulator {
	return &Simulator{Profile: p, Pricing: pr, Opts: Options{KeepAlive: 600}}
}

// Batch records one dispatched invocation.
type Batch struct {
	DispatchAt float64
	// StartAt is when execution actually began: equal to DispatchAt unless
	// the batch had to queue for a concurrency slot.
	StartAt float64
	Size    int
	Service float64 // execution time, including cold start if charged
	Cost    float64 // invocation cost in USD
	Cold    bool
	// Attempts is how many invocation attempts the batch consumed (1
	// without fault injection); Failed marks a batch whose retry budget
	// was exhausted, and RetryDelayS is the cumulative backoff it waited.
	Attempts    int
	Failed      bool
	RetryDelayS float64
}

// Result holds the outcome of simulating one configuration over a trace.
type Result struct {
	Config lambda.Config
	// Latencies holds the end-to-end latency of every request, in arrival
	// order: buffering delay + service time (+ cold start when enabled).
	Latencies []float64
	// PerRequestCost holds each request's share of its invocation cost.
	PerRequestCost []float64
	// DispatchTimes holds each request's batch dispatch timestamp.
	DispatchTimes []float64
	Batches       []Batch
	TotalCost     float64
	// Failure accounting, populated only under fault injection. Failed is
	// nil until a batch fails; Failed[k] marks request k's batch as
	// retry-exhausted (its Latencies entry is then time-to-failure and its
	// PerRequestCost is zero).
	Failed         []bool
	FailedRequests int
	Retries        int
}

// ErrNoArrivals is returned when the trace is empty.
var ErrNoArrivals = errors.New("qsim: empty arrival trace")

// ErrArrivalOrder is returned for an arrival window that decreases or holds
// a NaN. Run and GroundTruthBest read arrivals as nondecreasing timestamps:
// batch formation and the search's tail pass both rely on it.
var ErrArrivalOrder = errors.New("qsim: arrivals decrease or hold a NaN")

// checkArrivals returns ErrNoArrivals for an empty window and
// ErrArrivalOrder, naming the first offending index, for one that is not
// nondecreasing. A NaN fails every comparison, so it is caught wherever it
// sits.
func checkArrivals(arrivals []float64) error {
	if len(arrivals) == 0 {
		return ErrNoArrivals
	}
	if math.IsNaN(arrivals[0]) {
		return fmt.Errorf("%w: arrival 0 is NaN", ErrArrivalOrder)
	}
	for i := 1; i < len(arrivals); i++ {
		if !(arrivals[i] >= arrivals[i-1]) {
			return fmt.Errorf("%w: arrival %d (%v) after %v", ErrArrivalOrder, i, arrivals[i], arrivals[i-1])
		}
	}
	return nil
}

// CostPerRequest returns the average USD cost per request.
func (r *Result) CostPerRequest() float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	return r.TotalCost / float64(len(r.Latencies))
}

// LatencyPercentile returns the p-th percentile latency.
func (r *Result) LatencyPercentile(p float64) float64 {
	v, err := stats.Percentile(r.Latencies, p)
	if err != nil {
		return 0
	}
	return v
}

// MeanBatchSize returns the average number of requests per invocation.
func (r *Result) MeanBatchSize() float64 {
	if len(r.Batches) == 0 {
		return 0
	}
	total := 0
	for _, b := range r.Batches {
		total += b.Size
	}
	return float64(total) / float64(len(r.Batches))
}

// VCR returns the SLO violation count ratio of the run, in percent.
func (r *Result) VCR(slo float64) float64 { return stats.VCR(r.Latencies, slo) }

// Run simulates the trace of absolute arrival timestamps (nondecreasing;
// ErrArrivalOrder otherwise) under cfg and returns per-request metrics.
func (s *Simulator) Run(arrivals []float64, cfg lambda.Config) (*Result, error) {
	if err := checkArrivals(arrivals); err != nil {
		return nil, err
	}
	if !cfg.Valid() {
		return nil, errors.New("qsim: invalid configuration " + cfg.String())
	}
	n := len(arrivals)
	res := &Result{
		Config:         cfg,
		Latencies:      make([]float64, n),
		PerRequestCost: make([]float64, n),
		DispatchTimes:  make([]float64, n),
	}
	// The injector exists only for an active plan, so a zero fault rate
	// leaves every code path — and every registered metric series —
	// bit-identical to a fault-free run.
	var inj *fault.Injector
	if s.Opts.Fault != nil && s.Opts.Fault.Active() {
		inj = fault.NewInjector(*s.Opts.Fault)
	}
	met, err := newRunMetrics(s.Opts.Obs, inj != nil)
	if err != nil {
		return nil, err
	}
	tab := newSizeTable(min(cfg.BatchSize, n))
	var inv uint64 // invocation attempt index, mirrors FaultyBackend's counter
	// Warm-container pool: times at which containers become idle.
	var warm []float64
	// Concurrency slots: execution end times of in-flight invocations, kept
	// as a running window of the most recent MaxConcurrency batches.
	var slots *slotPool
	if s.Opts.MaxConcurrency > 0 {
		slots = newSlotPool(s.Opts.MaxConcurrency)
	}

	i := 0
	for i < n {
		j, dispatch := formBatch(arrivals, i, cfg.BatchSize, cfg.TimeoutS)
		size := j - i
		start := dispatch
		if slots != nil {
			// Wait for the earliest slot to free up, then occupy it.
			if free := slots.earliest(); free > start {
				start = free
			}
		}
		// Resolve the batch's fault outcome before it touches the warm pool
		// or a concurrency slot: a failed batch never executes, so it must
		// leave the platform state untouched.
		attempts := 1
		retryDelay := 0.0
		var outcome fault.Outcome
		failed := false
		if inj != nil {
			attempts = 0
			for {
				o := inj.Outcome(inv)
				inv++
				attempts++
				if !o.Err {
					outcome = o
					break
				}
				if attempts > s.Opts.Retry.Max {
					failed = true
					break
				}
				retryDelay += s.Opts.Retry.BackoffS(attempts - 1)
			}
			res.Retries += attempts - 1
		}
		cause := dispatchCauseTimeout
		if size == cfg.BatchSize {
			cause = dispatchCauseSize
		}
		if failed {
			failAt := start + retryDelay
			batch := Batch{
				DispatchAt: dispatch, StartAt: start, Size: size,
				Attempts: attempts, Failed: true, RetryDelayS: retryDelay,
			}
			res.Batches = append(res.Batches, batch)
			if res.Failed == nil {
				res.Failed = make([]bool, n)
			}
			res.FailedRequests += size
			for k := i; k < j; k++ {
				res.Latencies[k] = failAt - arrivals[k] // time to failure
				res.DispatchTimes[k] = dispatch
				res.Failed[k] = true
			}
			met.observeFailedBatch(batch)
			if s.Opts.Recorder != nil {
				s.Opts.Recorder.EventAt(failAt, "batch_failed",
					obs.I("size", size), obs.I("attempts", attempts))
			}
			i = j
			continue
		}
		execStart := start
		if retryDelay > 0 {
			execStart = start + retryDelay
		}
		svc, cost := tab.at(s, cfg.MemoryMB, size)
		cold := false
		if s.Opts.EnableColdStarts {
			cold = !s.takeWarm(&warm, execStart)
			if cold {
				svc += s.Profile.ColdStart(cfg.MemoryMB)
			}
		}
		// Straggler factors and cold-start spikes inflate the executed
		// duration exactly like fault.FaultyBackend does on the live path,
		// and the invocation is re-billed at its inflated runtime.
		if outcome.StragglerFactor > 0 {
			svc *= outcome.StragglerFactor
		}
		if outcome.ColdSpikeS > 0 {
			svc += outcome.ColdSpikeS
		}
		if slots != nil {
			slots.occupy(execStart + svc)
		}
		if cold || outcome.StragglerFactor > 0 || outcome.ColdSpikeS > 0 {
			cost = s.Pricing.InvocationCost(cfg.MemoryMB, svc)
		}
		batch := Batch{
			DispatchAt: dispatch, StartAt: start, Size: size, Service: svc, Cost: cost, Cold: cold,
			Attempts: attempts, RetryDelayS: retryDelay,
		}
		res.Batches = append(res.Batches, batch)
		res.TotalCost += cost
		perReq := cost / float64(size)
		for k := i; k < j; k++ {
			res.Latencies[k] = execStart - arrivals[k] + svc
			res.PerRequestCost[k] = perReq
			res.DispatchTimes[k] = dispatch
		}
		met.observeBatch(batch, cause, res.Latencies[i:j])
		met.observeRetries(attempts - 1)
		recordDispatch(s.Opts.Recorder, batch, cause)
		if s.Opts.EnableColdStarts {
			warm = append(warm, execStart+svc)
		}
		i = j
	}
	return res, nil
}

// formBatch applies the B-or-T rule to the batch opened by request i: it
// closes at request j (exclusive) and dispatches when the batchSize-th request
// arrives or timeoutS after the first one, whichever comes first. It reads
// nothing but the arrivals, so every memory size shares one partition.
func formBatch(arrivals []float64, i, batchSize int, timeoutS float64) (j int, dispatch float64) {
	deadline := arrivals[i] + timeoutS
	j = i + 1
	for j < len(arrivals) && j-i < batchSize && arrivals[j] <= deadline {
		j++
	}
	return j, dispatchAt(arrivals, i, j, batchSize, timeoutS)
}

// dispatchAt is when the batch arrivals[i:j] leaves under the B-or-T rule:
// at its batchSize-th arrival when full, else timeoutS after its first.
func dispatchAt(arrivals []float64, i, j, batchSize int, timeoutS float64) float64 {
	if j-i == batchSize {
		return arrivals[j-1]
	}
	return arrivals[i] + timeoutS
}

// sizeTable holds one memory size's service time and uninflated invocation
// cost by batch size. Both are pure functions of (memory, size), so a stored
// value is bit for bit what a direct call returns.
type sizeTable struct{ svc, cost []float64 }

// newSizeTable returns an empty table for batch sizes 1..maxSize.
func newSizeTable(maxSize int) sizeTable {
	buf := make([]float64, 2*(maxSize+1))
	return sizeTable{svc: buf[:maxSize+1], cost: buf[maxSize+1:]}
}

// at returns the service time and invocation cost of a batch of size requests
// at memory m, computing them on first use. Zero marks an empty entry; a
// profile whose service time really is zero is merely recomputed.
func (t sizeTable) at(s *Simulator, m float64, size int) (svc, cost float64) {
	if t.svc[size] == 0 {
		t.svc[size] = s.Profile.ServiceTime(m, size)
		t.cost[size] = s.Pricing.InvocationCost(m, t.svc[size])
	}
	return t.svc[size], t.cost[size]
}

// slotPool tracks the end times of in-flight invocations under a
// concurrency cap as a min-heap.
type slotPool struct {
	cap  int
	ends []float64 // min-heap of execution end times
}

func newSlotPool(capacity int) *slotPool { return &slotPool{cap: capacity} }

// earliest returns the time the next slot frees up (0 when a slot is idle).
func (p *slotPool) earliest() float64 {
	if len(p.ends) < p.cap {
		return 0
	}
	return p.ends[0]
}

// occupy records an execution ending at end, evicting the earliest-ending
// invocation when the pool is full (its slot is being reused).
func (p *slotPool) occupy(end float64) {
	if len(p.ends) == p.cap {
		p.popMin()
	}
	p.push(end)
}

func (p *slotPool) push(v float64) {
	p.ends = append(p.ends, v)
	i := len(p.ends) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.ends[parent] <= p.ends[i] {
			break
		}
		p.ends[parent], p.ends[i] = p.ends[i], p.ends[parent]
		i = parent
	}
}

func (p *slotPool) popMin() {
	last := len(p.ends) - 1
	p.ends[0] = p.ends[last]
	p.ends = p.ends[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(p.ends) && p.ends[l] < p.ends[small] {
			small = l
		}
		if r < len(p.ends) && p.ends[r] < p.ends[small] {
			small = r
		}
		if small == i {
			return
		}
		p.ends[i], p.ends[small] = p.ends[small], p.ends[i]
		i = small
	}
}

// takeWarm removes a warm container usable at time t from the pool, if any,
// and reports whether one was found.
func (s *Simulator) takeWarm(warm *[]float64, t float64) bool {
	pool := *warm
	for idx, free := range pool {
		if free <= t && t-free <= s.Opts.KeepAlive {
			pool[idx] = pool[len(pool)-1]
			*warm = pool[:len(pool)-1]
			return true
		}
	}
	// Garbage-collect expired containers to bound the pool.
	kept := pool[:0]
	for _, free := range pool {
		if t-free <= s.Opts.KeepAlive {
			kept = append(kept, free)
		}
	}
	*warm = kept
	return false
}

// Timestamps converts interarrival times to absolute arrival timestamps
// starting at the first interarrival.
func Timestamps(inter []float64) []float64 {
	ts := make([]float64, len(inter))
	t := 0.0
	for i, d := range inter {
		t += d
		ts[i] = t
	}
	return ts
}

// Interarrivals converts absolute timestamps to interarrival times, with the
// first entry equal to the first timestamp.
func Interarrivals(ts []float64) []float64 {
	out := make([]float64, len(ts))
	prev := 0.0
	for i, t := range ts {
		out[i] = t - prev
		prev = t
	}
	return out
}

// Target is the ground-truth label vector used to train the surrogate model:
// the per-request cost followed by the requested latency percentiles.
type Target struct {
	CostPerRequest float64
	Percentiles    []float64 // same order as the requested percentile list
}

// Vector flattens the target as [cost, p_1, ..., p_k].
func (t Target) Vector() []float64 {
	out := make([]float64, 0, 1+len(t.Percentiles))
	out = append(out, t.CostPerRequest)
	out = append(out, t.Percentiles...)
	return out
}

// Evaluate simulates cfg over the interarrival window and returns the
// training target with the given latency percentiles (e.g. 50, 75, 90, 95,
// 99 as predicted by the surrogate).
func (s *Simulator) Evaluate(inter []float64, cfg lambda.Config, percentiles []float64) (Target, error) {
	res, err := s.Run(Timestamps(inter), cfg)
	if err != nil {
		return Target{}, err
	}
	ps, err := stats.Percentiles(res.Latencies, percentiles)
	if err != nil {
		return Target{}, err
	}
	return Target{CostPerRequest: res.CostPerRequest(), Percentiles: ps}, nil
}
