// Package core holds the control side of the DeepBAT framework of Fig. 2: a
// Workload Parser that observes request arrivals and maintains the recent
// interarrival window, pluggable controllers (DeepBAT's surrogate optimizer,
// the BATCH analytical baseline, a ground-truth oracle, and static
// configurations), and a replay Engine that drives full traces through the
// batching simulator with periodic reconfiguration while accounting latency,
// cost, SLO violations (VCR), and decision time. The buffer that dispatches
// at B or at T lives in internal/gateway (serving) and internal/qsim (its
// model).
package core

// WorkloadParser collects arrival timestamps and maintains a bounded window
// of the most recent interarrival times (the model input sequence). Unlike
// BATCH it performs no distribution fitting — the raw interarrival sequence
// is the statistic.
type WorkloadParser struct {
	capacity int
	lastTS   float64
	seen     int
	// ring buffer of the most recent interarrival times
	ring []float64
	head int
	n    int
}

// NewWorkloadParser returns a parser keeping the last capacity interarrivals.
func NewWorkloadParser(capacity int) *WorkloadParser {
	if capacity <= 0 {
		panic("core: parser capacity must be positive")
	}
	return &WorkloadParser{capacity: capacity, ring: make([]float64, capacity)}
}

// Observe records an arrival at timestamp ts (nondecreasing).
func (p *WorkloadParser) Observe(ts float64) {
	if p.seen > 0 {
		d := ts - p.lastTS
		if d < 0 {
			d = 0
		}
		p.ring[p.head] = d
		p.head = (p.head + 1) % p.capacity
		if p.n < p.capacity {
			p.n++
		}
	}
	p.lastTS = ts
	p.seen++
}

// Full reports whether a complete window is available.
func (p *WorkloadParser) Full() bool { return p.n == p.capacity }

// Window returns the most recent interarrival times in chronological order
// (up to capacity entries).
func (p *WorkloadParser) Window() []float64 {
	out := make([]float64, p.n)
	start := (p.head - p.n + p.capacity*2) % p.capacity
	for i := 0; i < p.n; i++ {
		out[i] = p.ring[(start+i)%p.capacity]
	}
	return out
}
