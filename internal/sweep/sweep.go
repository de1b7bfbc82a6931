// Package sweep is the deterministic parallel fan-out/fan-in engine behind
// every multi-cell evaluation in this repo: the experiments' scenario
// matrices, ablation/sensitivity grids and chaos sweeps, qsim's grid-search
// fan-out, the replay shard sweep, surrogate dataset labelling
// (one simulation per sample) and minibatch training (one cell per worker),
// and the BATCH baseline's per-configuration analysis. The numeric kernels below these cells are serial; parallelism
// lives at the cell grain.
//
// A sweep executes N independent cells on a bounded worker pool and merges
// their results in cell-index order. Three properties make the output a pure
// function of (inputs, cell count, sweep seed) — never of the worker count,
// scheduling, or machine:
//
//   - Per-cell seeds. Cell i's Seed is a splitmix64 derivation of the sweep
//     seed and i (CellSeed), so a cell's randomness is identical whether it
//     runs first on one worker or last on sixteen.
//
//   - Isolated observability. Each cell lazily owns a private obs.Registry
//     and obs.Recorder; nothing is shared while cells are in flight. After
//     the pool joins, Run merges the per-cell registries (and event streams)
//     into the optional Options.Obs/Options.Recorder sinks in cell-index
//     order, so even float-summation order is pinned and merged snapshots
//     are byte-identical for any worker count.
//
//   - Ordered fan-in. Results land in caller-owned slices at c.Index, and
//     the first error surfaced is the one from the lowest-index failed cell
//     among those executed; a panicking cell is captured as a *PanicError
//     instead of crashing the pool, which drains and joins before Run
//     returns.
//
// This is the same "parallel must equal serial, byte for byte" discipline
// the training fan-out and the P=1 gateway sharding pin for their layers,
// applied to whole evaluations.
package sweep

//deepbat:deterministic

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"deepbat/internal/obs"
)

// Options parameterizes one sweep.
type Options struct {
	// Workers bounds the pool (0 = GOMAXPROCS, clamped to the cell count;
	// 1 runs the cells inline on the calling goroutine).
	Workers int
	// Seed is the sweep seed every cell seed derives from (CellSeed).
	Seed int64
	// Obs, when non-nil, receives every cell's lazily created registry
	// (Cell.Obs) after the pool joins, merged in cell-index order — the
	// deterministic fan-in for metric snapshots.
	Obs *obs.Registry
	// Recorder, when non-nil, receives every cell's lazily created event
	// stream (Cell.Recorder) after the pool joins, appended in cell-index
	// order.
	Recorder *obs.Recorder
}

// WorkersFor resolves the effective pool size for n cells.
func (o Options) WorkersFor(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// splitmix64 is the finalizer of the SplitMix64 generator — the same
// bijective avalanche mix the fault injector and the gateway shard router
// use for their pure-function randomness.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CellSeed derives cell index's seed from the sweep seed: two rounds of
// splitmix64 over (seed, index) on distinct odd constants. It is a pure
// function, so cell seeds never depend on worker count or execution order,
// and distinct indices get decorrelated streams even for adjacent sweep
// seeds.
func CellSeed(seed int64, index int) int64 {
	x := splitmix64(uint64(seed) ^ 0xda942042e4dd58b5)
	return int64(splitmix64(x + (uint64(index)+1)*0x9e3779b97f4a7c15))
}

// Cell is one unit of sweep work. Exactly one worker executes a given cell,
// so its methods need no synchronization; the pointer must not be retained
// past the cell function's return.
type Cell struct {
	// Index is the cell's position in [0, N); results belong at this index.
	Index int
	// Seed is CellSeed(Options.Seed, Index) — the only randomness a
	// deterministic cell function may consume.
	Seed int64

	reg *obs.Registry
	rec *obs.Recorder
}

// Obs returns the cell's private metric registry, creating it on first use.
// Cells that never call Obs cost nothing; created registries are merged into
// Options.Obs in cell-index order after the pool joins.
func (c *Cell) Obs() *obs.Registry {
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	return c.reg
}

// Recorder returns the cell's private event recorder (manual clock, default
// capacity), creating it on first use. Created recorders are appended into
// Options.Recorder in cell-index order after the pool joins.
func (c *Cell) Recorder() *obs.Recorder {
	if c.rec == nil {
		c.rec = obs.NewRecorder(nil, 0)
	}
	return c.rec
}

// PanicError is the captured panic of one cell: the sweep surfaces it as an
// ordinary error instead of tearing down the process, after the pool has
// drained.
type PanicError struct {
	Cell  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v", e.Cell, e.Value)
}

// runner is the shared state of one sweep execution.
type runner struct {
	fn    func(*Cell) error
	cells []Cell
	errs  []error
	next  atomic.Int64
	// failed stops the dispatch of new cells after the first error; workers
	// finish the cell they hold, so the pool always drains and joins.
	failed atomic.Bool
}

// drain is the steady-state dispatch loop every worker runs: claim the next
// cell index with one atomic add, execute it, repeat until the cells are
// exhausted or a cell has failed. The loop itself performs no heap
// allocation — cells, errors, and results all live in pre-sized slices — so
// sweep overhead stays flat no matter how many cells a sweep has.
func (r *runner) drain() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.cells) || r.failed.Load() {
			return
		}
		r.runCell(i)
	}
}

// runCell executes one cell, capturing a panic as that cell's error.
func (r *runner) runCell(i int) {
	defer r.capture(i)
	if err := r.fn(&r.cells[i]); err != nil {
		r.errs[i] = err
		r.failed.Store(true)
	}
}

// capture converts a cell panic into a *PanicError so the sweep reports it
// as an error after the pool drains.
func (r *runner) capture(i int) {
	if p := recover(); p != nil {
		r.errs[i] = &PanicError{Cell: i, Value: p, Stack: debug.Stack()}
		r.failed.Store(true)
	}
}

// Run executes fn for each of n cells on the bounded pool and returns after
// every launched worker has joined. The caller communicates results by
// writing into its own pre-sized slices at c.Index; Run guarantees the cell
// function runs at most once per index.
//
// On failure Run reports the error of the lowest-index failed cell (a cell
// panic surfaces as *PanicError); remaining undispatched cells are skipped,
// in-flight cells complete, and no goroutine outlives the call.
func Run(o Options, n int, fn func(c *Cell) error) error {
	if n < 0 {
		return fmt.Errorf("sweep: negative cell count %d", n)
	}
	if n == 0 {
		return nil
	}
	r := &runner{
		fn:    fn,
		cells: make([]Cell, n),
		errs:  make([]error, n),
	}
	for i := range r.cells {
		r.cells[i].Index = i
		r.cells[i].Seed = CellSeed(o.Seed, i)
	}
	if w := o.WorkersFor(n); w <= 1 {
		r.drain()
	} else {
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.drain()
			}()
		}
		wg.Wait()
	}
	for i := range r.errs {
		if err := r.errs[i]; err != nil {
			if _, ok := err.(*PanicError); ok {
				return err
			}
			return fmt.Errorf("sweep: cell %d: %w", i, err)
		}
	}
	// Deterministic fan-in: merge per-cell telemetry in cell-index order so
	// even float-summation order is independent of the worker count.
	for i := range r.cells {
		c := &r.cells[i]
		if o.Obs != nil && c.reg != nil {
			if err := o.Obs.Merge(c.reg); err != nil {
				return fmt.Errorf("sweep: cell %d metrics: %w", i, err)
			}
		}
		if o.Recorder != nil && c.rec != nil {
			o.Recorder.Append(c.rec)
		}
	}
	return nil
}
