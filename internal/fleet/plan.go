// Package fleet serves N model classes, each with its own service-time
// profile, SLO, and traffic stream, behind one demultiplexing front door —
// the ROADMAP's fleet gateway. A Plan declares the classes; New builds one
// sharded gateway per function group (classes the optimizer or the plan
// packed together) and routes each request to its class's group, keeping the
// zero-alloc Submit hot path of the single gateway intact. A 1-class plan is
// byte-identical to a bare gateway — the golden tests pin that bit for bit.
//
// Above the per-group fast paths sits the two-timescale controller the
// InferLine split suggests: a slow planner (Optimize, the HarmonyBatch-style
// SLO-merging pass in optimizer.go) decides the grouping offline, and a fast
// per-group tuner re-searches (M, B, T) on the control timescale against the
// group's recent arrival window.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
)

// ConfigSpec is a serving configuration in plan-file form.
type ConfigSpec struct {
	MemoryMB  float64 `json:"memory_mb"`
	BatchSize int     `json:"batch_size"`
	TimeoutS  float64 `json:"timeout_s,omitempty"`
}

// Config converts the spec to a lambda.Config.
func (c ConfigSpec) Config() lambda.Config {
	return lambda.Config{MemoryMB: c.MemoryMB, BatchSize: c.BatchSize, TimeoutS: c.TimeoutS}
}

// PricingSpec overrides the default AWS pricing for one class. All merged
// classes must share a pricing (a function group is billed one way).
type PricingSpec struct {
	PerRequestUSD      float64 `json:"per_request_usd"`
	PerGBSecondUSD     float64 `json:"per_gb_second_usd"`
	BillingGranularity float64 `json:"billing_granularity_s,omitempty"`
}

// Pricing converts the spec to a lambda.Pricing.
func (p PricingSpec) Pricing() lambda.Pricing {
	return lambda.Pricing{
		PerRequestUSD:      p.PerRequestUSD,
		PerGBSecondUSD:     p.PerGBSecondUSD,
		BillingGranularity: p.BillingGranularity,
	}
}

// ResilienceSpec is gateway.Resilience in plan-file form: durations in
// milliseconds, and the backoff-jitter PRNG named by seed so every build of
// the plan constructs an identical one.
type ResilienceSpec struct {
	MaxRetries       int         `json:"max_retries,omitempty"`
	RetryBaseMS      float64     `json:"retry_base_ms,omitempty"`
	RetryMaxMS       float64     `json:"retry_max_ms,omitempty"`
	JitterSeed       int64       `json:"jitter_seed,omitempty"`
	RequestTimeoutS  float64     `json:"request_timeout_s,omitempty"`
	BreakerThreshold int         `json:"breaker_threshold,omitempty"`
	BreakerCooldownS float64     `json:"breaker_cooldown_s,omitempty"`
	Fallback         *ConfigSpec `json:"fallback,omitempty"`
}

// Resilience builds the gateway.Resilience the spec describes. A non-zero
// JitterSeed seeds a fresh backoff-jitter PRNG, exactly as the chaos harness
// does, so same-plan runs stay bit-identical.
func (r *ResilienceSpec) Resilience() gateway.Resilience {
	if r == nil {
		return gateway.Resilience{}
	}
	out := gateway.Resilience{
		MaxRetries:       r.MaxRetries,
		RetryBase:        time.Duration(r.RetryBaseMS * float64(time.Millisecond)),
		RetryMax:         time.Duration(r.RetryMaxMS * float64(time.Millisecond)),
		RequestTimeoutS:  r.RequestTimeoutS,
		BreakerThreshold: r.BreakerThreshold,
		BreakerCooldownS: r.BreakerCooldownS,
	}
	if r.JitterSeed != 0 {
		out.Jitter = rand.New(rand.NewSource(r.JitterSeed))
	}
	if r.Fallback != nil {
		out.Fallback = r.Fallback.Config()
	}
	return out
}

// ClassSpec declares one model class of the fleet.
type ClassSpec struct {
	// Name labels the class; requests route by it. Unique, non-empty.
	Name string `json:"name"`
	// Profile names the service-time profile in lambda.Profiles
	// ("" = nlp-base, the default profile).
	Profile string `json:"profile,omitempty"`
	// SLO is the class's latency objective in seconds (> 0).
	SLO float64 `json:"slo_s"`
	// Initial is the serving configuration before any tuning
	// (nil = 2048 MB, B=4, T=0.1 s, the replay default).
	Initial *ConfigSpec `json:"initial,omitempty"`
	// Shards is the class gateway's batcher shard count (0 = 1).
	Shards int `json:"shards,omitempty"`
	// MergeWith statically packs this class onto the named class's function
	// group (chains allowed; cycles are invalid). The optimizer's merge
	// pass can pack further when Plan.Merge is set.
	MergeWith string `json:"merge_with,omitempty"`
	// Pricing overrides the AWS default pricing (merged classes must agree).
	Pricing *PricingSpec `json:"pricing,omitempty"`
	// Resilience configures retries/deadline/breaker for the class's group
	// (the group adopts its strictest-SLO member's resilience).
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
}

// profileName resolves the class's profile key.
func (c ClassSpec) profileName() string {
	if c.Profile == "" {
		return "nlp-base"
	}
	return c.Profile
}

// LambdaPricing returns the class's pricing (default AWS when unset).
func (c ClassSpec) LambdaPricing() lambda.Pricing {
	if c.Pricing != nil {
		return c.Pricing.Pricing()
	}
	return lambda.DefaultPricing()
}

// InitialConfig returns the class's starting configuration.
func (c ClassSpec) InitialConfig() lambda.Config {
	if c.Initial != nil {
		return c.Initial.Config()
	}
	return lambda.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.1}
}

// GridSpec is the candidate (M, B, T) space in plan-file form.
type GridSpec struct {
	Memories  []float64 `json:"memories_mb"`
	Batches   []int     `json:"batches"`
	TimeoutsS []float64 `json:"timeouts_s"`
}

// Grid converts the spec to a lambda.Grid.
func (g GridSpec) Grid() lambda.Grid {
	return lambda.Grid{Memories: g.Memories, Batches: g.Batches, TimeoutsS: g.TimeoutsS}
}

// Plan is the fleet declaration: the classes to serve, whether the optimizer
// may merge SLO-compatible classes onto shared function groups, and the
// candidate configuration grid the searches run over.
type Plan struct {
	Classes []ClassSpec `json:"classes"`
	// Merge enables the HarmonyBatch-style merging pass in Optimize.
	Merge bool `json:"merge,omitempty"`
	// Grid overrides lambda.DefaultGrid for the (M, B, T) searches.
	Grid *GridSpec `json:"grid,omitempty"`
}

// LambdaGrid returns the plan's search grid (the default when unset).
func (p Plan) LambdaGrid() lambda.Grid {
	if p.Grid != nil {
		return p.Grid.Grid()
	}
	return lambda.DefaultGrid()
}

// ClassIndex returns the index of the named class, or -1.
func (p Plan) ClassIndex(name string) int {
	for i, c := range p.Classes {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// finite rejects NaN and infinities in plan floats.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks every plan invariant New and Optimize rely on: at least
// one class, unique non-empty names, positive finite SLOs, known profiles,
// valid configurations and grids, acyclic merge_with chains, and profile/
// pricing agreement inside every statically merged group.
func (p Plan) Validate() error {
	if len(p.Classes) == 0 {
		return errors.New("fleet: plan has no classes")
	}
	seen := make(map[string]int, len(p.Classes))
	for i, c := range p.Classes {
		if c.Name == "" {
			return fmt.Errorf("fleet: class %d has an empty name", i)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("fleet: duplicate class %q", c.Name)
		}
		seen[c.Name] = i
		if !finite(c.SLO) || c.SLO <= 0 {
			return fmt.Errorf("fleet: class %q has non-positive SLO %g", c.Name, c.SLO)
		}
		if _, ok := lambda.Profiles[c.profileName()]; !ok {
			return fmt.Errorf("fleet: class %q names unknown profile %q", c.Name, c.Profile)
		}
		if c.Initial != nil {
			cfg := c.Initial.Config()
			if !finite(cfg.MemoryMB) || !finite(cfg.TimeoutS) || !cfg.Valid() {
				return fmt.Errorf("fleet: class %q has invalid initial config %s", c.Name, cfg)
			}
		}
		if c.Shards < 0 {
			return fmt.Errorf("fleet: class %q has negative shard count", c.Name)
		}
		if r := c.Resilience; r != nil {
			if r.MaxRetries < 0 || r.BreakerThreshold < 0 ||
				!finite(r.RetryBaseMS) || r.RetryBaseMS < 0 ||
				!finite(r.RetryMaxMS) || r.RetryMaxMS < 0 ||
				!finite(r.RequestTimeoutS) || r.RequestTimeoutS < 0 ||
				!finite(r.BreakerCooldownS) || r.BreakerCooldownS < 0 {
				return fmt.Errorf("fleet: class %q has invalid resilience", c.Name)
			}
			if r.Fallback != nil {
				fb := r.Fallback.Config()
				if !finite(fb.MemoryMB) || !finite(fb.TimeoutS) || !fb.Valid() {
					return fmt.Errorf("fleet: class %q has invalid fallback config %s", c.Name, fb)
				}
			}
		}
		if pr := c.Pricing; pr != nil {
			if !finite(pr.PerRequestUSD) || pr.PerRequestUSD < 0 ||
				!finite(pr.PerGBSecondUSD) || pr.PerGBSecondUSD < 0 ||
				!finite(pr.BillingGranularity) || pr.BillingGranularity < 0 {
				return fmt.Errorf("fleet: class %q has invalid pricing", c.Name)
			}
		}
	}
	if p.Grid != nil {
		g := p.Grid
		if len(g.Memories) == 0 || len(g.Batches) == 0 || len(g.TimeoutsS) == 0 {
			return errors.New("fleet: plan grid has an empty dimension")
		}
		for _, m := range g.Memories {
			if !finite(m) || m < lambda.MinMemoryMB || m > lambda.MaxMemoryMB {
				return fmt.Errorf("fleet: grid memory %g outside the Lambda range", m)
			}
		}
		for _, b := range g.Batches {
			if b < 1 {
				return fmt.Errorf("fleet: grid batch size %d < 1", b)
			}
		}
		for _, t := range g.TimeoutsS {
			if !finite(t) || t < 0 {
				return fmt.Errorf("fleet: grid timeout %g < 0", t)
			}
		}
	}
	// Resolve every merge_with chain to its root, rejecting unknown targets,
	// self-references, and cycles, then check group-wide agreement.
	roots := make([]int, len(p.Classes))
	for i := range p.Classes {
		roots[i] = -1
	}
	var resolve func(i int, onPath map[int]bool) (int, error)
	resolve = func(i int, onPath map[int]bool) (int, error) {
		if roots[i] >= 0 {
			return roots[i], nil
		}
		target := p.Classes[i].MergeWith
		if target == "" {
			roots[i] = i
			return i, nil
		}
		j, ok := seen[target]
		if !ok {
			return -1, fmt.Errorf("fleet: class %q merges with unknown class %q", p.Classes[i].Name, target)
		}
		if j == i || onPath[j] {
			return -1, fmt.Errorf("fleet: merge_with cycle through class %q", p.Classes[i].Name)
		}
		onPath[i] = true
		root, err := resolve(j, onPath)
		if err != nil {
			return -1, err
		}
		roots[i] = root
		return root, nil
	}
	for i := range p.Classes {
		root, err := resolve(i, map[int]bool{})
		if err != nil {
			return err
		}
		if p.Classes[i].profileName() != p.Classes[root].profileName() {
			return fmt.Errorf("fleet: class %q (profile %s) cannot merge with %q (profile %s)",
				p.Classes[i].Name, p.Classes[i].profileName(),
				p.Classes[root].Name, p.Classes[root].profileName())
		}
		if !samePricing(p.Classes[i].Pricing, p.Classes[root].Pricing) {
			return fmt.Errorf("fleet: class %q cannot merge with %q: pricing differs",
				p.Classes[i].Name, p.Classes[root].Name)
		}
	}
	return nil
}

// samePricing reports whether two pricing specs describe the same billing.
func samePricing(a, b *PricingSpec) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

// StaticGroups partitions the class indices into the plan's merge_with
// units: classes that share a chain root form one group. Groups are ordered
// by their smallest member index; members are ascending. Call only on a
// validated plan (chains must resolve).
func (p Plan) StaticGroups() [][]int {
	seen := make(map[string]int, len(p.Classes))
	for i, c := range p.Classes {
		seen[c.Name] = i
	}
	root := func(i int) int {
		for p.Classes[i].MergeWith != "" {
			i = seen[p.Classes[i].MergeWith]
		}
		return i
	}
	byRoot := make(map[int][]int, len(p.Classes))
	var order []int
	for i := range p.Classes {
		r := root(i)
		if _, ok := byRoot[r]; !ok {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], i) // ascending: i increases
	}
	// Iterating i ascending makes each root's first appearance its group's
	// smallest member, so order is already by smallest member index.
	groups := make([][]int, 0, len(order))
	for _, r := range order {
		groups = append(groups, byRoot[r])
	}
	return groups
}

// ParsePlan decodes a plan file leniently (any JSON formatting, unknown
// fields rejected) and validates it — the CLI entry point.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fleet: decoding plan: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return Plan{}, errors.New("fleet: trailing data after plan document")
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// DecodePlan is the canonical codec: it accepts exactly the bytes EncodePlan
// emits. Anything else — reordered keys, extra whitespace, duplicate keys,
// omitted-default fields spelled out — is rejected, so every accepted input
// re-encodes bit-identically (the FuzzPlanValidate contract, mirroring the
// tracev1 decoder).
func DecodePlan(data []byte) (Plan, error) {
	p, err := ParsePlan(data)
	if err != nil {
		return Plan{}, err
	}
	enc, err := EncodePlan(p)
	if err != nil {
		return Plan{}, err
	}
	if !bytes.Equal(enc, data) {
		return Plan{}, errors.New("fleet: plan document is not in canonical form")
	}
	return p, nil
}

// EncodePlan renders the canonical byte form of a plan: compact JSON with
// struct-order keys.
func EncodePlan(p Plan) ([]byte, error) {
	return json.Marshal(p)
}
