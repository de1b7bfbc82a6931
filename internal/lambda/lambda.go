// Package lambda models the serverless execution substrate of the paper:
// deterministic inference service times as a function of the function memory
// size M and batch size B, and the AWS Lambda pay-as-you-go pricing scheme
// (per-request fee plus GB-second fee with rounded billing duration).
//
// The paper (and BATCH before it) establish experimentally that ML inference
// service times on Lambda are deterministic given the configuration, that CPU
// allocation scales with the memory size, and that batching scales
// sublinearly thanks to intra-batch parallelism. Profiles here encode that
// functional family for a few representative model classes; they play the
// role of the TED-LIUM profiling data used in the paper.
package lambda

import (
	"fmt"
	"math"
)

// Memory bounds of AWS Lambda in MB (Eq. 10e of the paper).
const (
	MinMemoryMB = 128
	MaxMemoryMB = 10240
)

// Profile describes the deterministic service time of one ML model class:
//
//	s(M, B) = (Base + PerReq * B^Gamma) / cpuFactor(M)
//	cpuFactor(M) = min(M, MemCap) / MemRef
//
// Base is the fixed invocation overhead and PerReq the incremental per-request
// work, both in seconds at the reference memory MemRef. Gamma in (0, 1]
// captures sublinear batch scaling. MemCap is the memory size beyond which
// additional CPU no longer helps the model.
type Profile struct {
	Name    string
	Base    float64 // seconds at MemRef
	PerReq  float64 // seconds per request^Gamma at MemRef
	Gamma   float64
	MemRef  float64 // MB
	MemCap  float64 // MB
	ColdSec float64 // additional cold-start latency at MemRef, scaled like Base
}

// ServiceTime returns the deterministic execution time in seconds of a batch
// of b requests with memory m MB. It panics on non-positive batch size and
// clamps the memory to the Lambda limits.
func (p Profile) ServiceTime(m float64, b int) float64 {
	if b < 1 {
		panic(fmt.Sprintf("lambda: batch size %d < 1", b))
	}
	m = ClampMemory(m)
	return (p.Base + p.PerReq*math.Pow(float64(b), p.Gamma)) / p.cpuFactor(m)
}

// ColdStart returns the additional first-invocation latency at memory m.
func (p Profile) ColdStart(m float64) float64 {
	m = ClampMemory(m)
	return p.ColdSec / p.cpuFactor(m)
}

func (p Profile) cpuFactor(m float64) float64 {
	if m > p.MemCap {
		m = p.MemCap
	}
	return m / p.MemRef
}

// ClampMemory restricts m to the valid Lambda range.
func ClampMemory(m float64) float64 {
	if m < MinMemoryMB {
		return MinMemoryMB
	}
	if m > MaxMemoryMB {
		return MaxMemoryMB
	}
	return m
}

// Profiles holds the built-in model classes. "nlp-base" approximates the
// TED-LIUM speech/NLP inference of the paper's evaluation.
var Profiles = map[string]Profile{
	"nlp-base": {
		Name:   "nlp-base",
		Base:   0.020,
		PerReq: 0.004,
		Gamma:  0.8,
		MemRef: 2048,
		MemCap: 4096, ColdSec: 1.5,
	},
	"nlp-large": {
		Name:   "nlp-large",
		Base:   0.060,
		PerReq: 0.012,
		Gamma:  0.85,
		MemRef: 2048,
		MemCap: 8192, ColdSec: 3.0,
	},
	"cnn-small": {
		Name:   "cnn-small",
		Base:   0.008,
		PerReq: 0.0015,
		Gamma:  0.7,
		MemRef: 2048,
		MemCap: 3008, ColdSec: 0.8,
	},
}

// DefaultProfile is the model class used throughout the evaluation.
func DefaultProfile() Profile { return Profiles["nlp-base"] }

// Pricing is the AWS Lambda cost model.
type Pricing struct {
	// PerRequestUSD is the charge per invocation (USD 0.20 per million).
	PerRequestUSD float64
	// PerGBSecondUSD is the compute charge per GB-second.
	PerGBSecondUSD float64
	// BillingGranularity rounds the billed duration up (seconds); AWS
	// billed in 100 ms units at the time of BATCH and in 1 ms units today.
	BillingGranularity float64
}

// DefaultPricing returns the public AWS Lambda prices with 1 ms rounding.
func DefaultPricing() Pricing {
	return Pricing{
		PerRequestUSD:      0.20 / 1e6,
		PerGBSecondUSD:     0.0000166667,
		BillingGranularity: 0.001,
	}
}

// InvocationCost returns the USD cost of one invocation of duration seconds
// at memory m MB.
func (p Pricing) InvocationCost(m, duration float64) float64 {
	m = ClampMemory(m)
	billed := duration
	if p.BillingGranularity > 0 {
		billed = math.Ceil(duration/p.BillingGranularity) * p.BillingGranularity
	}
	return p.PerRequestUSD + billed*(m/1024)*p.PerGBSecondUSD
}

// CostPerRequest returns the USD cost per request of serving a batch of b
// requests taking duration seconds at memory m.
func (p Pricing) CostPerRequest(m, duration float64, b int) float64 {
	if b < 1 {
		panic(fmt.Sprintf("lambda: batch size %d < 1", b))
	}
	return p.InvocationCost(m, duration) / float64(b)
}

// Config is one candidate serverless configuration: the decision variables
// of the paper's optimization problem (Eq. 10).
type Config struct {
	MemoryMB  float64 // M
	BatchSize int     // B
	TimeoutS  float64 // T, seconds
}

// Valid reports whether the configuration satisfies the constraints
// (Eqs. 10c–10e).
func (c Config) Valid() bool {
	return c.BatchSize >= 1 && c.TimeoutS >= 0 &&
		c.MemoryMB >= MinMemoryMB && c.MemoryMB <= MaxMemoryMB
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("M=%gMB B=%d T=%gms", c.MemoryMB, c.BatchSize, c.TimeoutS*1000)
}

// Grid describes the candidate configuration space searched by both DeepBAT
// and BATCH.
type Grid struct {
	Memories  []float64 // MB
	Batches   []int
	TimeoutsS []float64 // seconds
}

// DefaultGrid returns the candidate space used in the evaluation: a span of
// Lambda memory sizes, batch sizes, and buffer timeouts.
func DefaultGrid() Grid {
	return Grid{
		Memories:  []float64{512, 1024, 1536, 2048, 3008, 4096},
		Batches:   []int{1, 2, 4, 8, 16, 32},
		TimeoutsS: []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.5},
	}
}

// Configs enumerates every configuration in the grid.
func (g Grid) Configs() []Config {
	out := make([]Config, 0, len(g.Memories)*len(g.Batches)*len(g.TimeoutsS))
	for _, m := range g.Memories {
		for _, b := range g.Batches {
			for _, t := range g.TimeoutsS {
				out = append(out, Config{MemoryMB: m, BatchSize: b, TimeoutS: t})
			}
		}
	}
	return out
}

// Size returns the number of configurations in the grid.
func (g Grid) Size() int { return len(g.Memories) * len(g.Batches) * len(g.TimeoutsS) }
