package qsim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"deepbat/internal/lambda"
	"deepbat/internal/stats"
	"deepbat/internal/sweep"
)

// Score is what GroundTruthBest knows about the configuration it chose,
// bit for bit what a Run of it reports. A caller that needs per-request
// detail Runs the config.
type Score struct {
	// TotalCost is Run's TotalCost over the window.
	TotalCost float64
	// Tail is Run's LatencyPercentile at the search's percentile.
	Tail float64
	// Feasible is the search's own test of Tail against the SLO,
	// !(Tail > slo): false only when no config in the grid met it.
	Feasible bool
}

// GroundTruthBest searches every configuration in the grid and returns the
// cheapest one whose pct-percentile latency meets the SLO, together with its
// score. If no configuration is feasible it returns the one with the lowest
// tail latency. This is the paper's "ground truth" oracle.
//
// The search is exact but does not simulate the grid: without platform state
// a config's cost and latencies are a function of the (B, T) batch partition
// and a per-memory table, so it scores configs (searchByScore) and Runs none.
// Options that make timing depend on platform state, or that watch every
// run, keep the per-config Run search (searchByRun).
func (s *Simulator) GroundTruthBest(arrivals []float64, grid lambda.Grid, slo, pct float64) (lambda.Config, Score, error) {
	if err := checkArrivals(arrivals); err != nil {
		return lambda.Config{}, Score{}, err
	}
	configs := grid.Configs()
	if len(configs) == 0 {
		return lambda.Config{}, Score{}, errors.New("qsim: empty search grid")
	}
	if s.stateful() {
		best, res, err := s.searchByRun(arrivals, configs, slo, pct)
		if err != nil {
			return lambda.Config{}, Score{}, err
		}
		tail := res.LatencyPercentile(pct)
		return configs[best], Score{TotalCost: res.TotalCost, Tail: tail, Feasible: !(tail > slo)}, nil
	}
	best, score, err := s.searchByScore(arrivals, grid, configs, slo, pct)
	if err != nil {
		return lambda.Config{}, Score{}, err
	}
	return configs[best], score, nil
}

// stateful reports whether platform state (the warm pool, concurrency slots,
// the fault schedule's invocation counter) feeds back into timing, or a sink
// observes every run — the cases only a full Run per config can score.
func (s *Simulator) stateful() bool {
	o := &s.Opts
	return o.EnableColdStarts || o.MaxConcurrency > 0 || (o.Fault != nil && o.Fault.Active()) ||
		o.Obs != nil || o.Recorder != nil
}

// searchByRun scores every config with a full Run, serially, and keeps every
// Result: the one path for stateful options, and the reference the scoring
// search is tested against. The choice is the first strictly-lowest cost per
// request among tails within the SLO, in grid order.
func (s *Simulator) searchByRun(arrivals []float64, configs []lambda.Config, slo, pct float64) (int, *Result, error) {
	all := make([]*Result, len(configs))
	tail := make([]float64, len(configs))
	best := -1
	for i, cfg := range configs {
		res, err := s.Run(arrivals, cfg)
		if err != nil {
			return 0, nil, err
		}
		all[i], tail[i] = res, res.LatencyPercentile(pct)
		if tail[i] > slo {
			continue
		}
		if best < 0 || res.CostPerRequest() < all[best].CostPerRequest() {
			best = i
		}
	}
	if best < 0 {
		best = lowestTail(tail)
	}
	return best, all[best], nil
}

// lowestTail is the infeasible-everywhere fallback: the config with the
// lowest tail. Ties are real (every B = 1 config is the same run at any T)
// and sort.Slice is not stable, so the pick is defined as whatever this sort
// over grid-ordered tails puts first.
func lowestTail(tail []float64) int {
	order := make([]int, len(tail))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tail[order[a]] < tail[order[b]] })
	return order[0]
}

// searchByScore returns the grid index searchByRun would choose, and its
// score, without materialising any Result. Costs need only batch sizes, so
// they come first (newSearchGrid). Configs are then visited cheapest first
// (grid order among equals) and the first tail within the SLO wins — the
// same config as scanning all of them, for a handful of tails instead of one
// per config. The walk stops at its first hit, so it is serial. Nothing is
// carried from one search to the next.
func (s *Simulator) searchByScore(arrivals []float64, grid lambda.Grid, configs []lambda.Config, slo, pct float64) (int, Score, error) {
	g, err := s.newSearchGrid(arrivals, grid, configs)
	if err != nil {
		return 0, Score{}, err
	}
	n := len(arrivals)
	floats := make([]float64, 2*len(configs)+n)
	cost, tail, lat := floats[:len(configs)], floats[len(configs):2*len(configs)], floats[2*len(configs):]
	order := cheapest{cost: cost, heap: make([]int, len(configs))}
	for i := range order.heap {
		cost[i] = g.total(i) / float64(n)
		order.heap[i] = i
	}
	order.init()

	// The walk first counts a config's latencies above the SLO, up to the
	// count that can refute; when the count alone proves the tail exceeds
	// it, the exact tail is left unread (refuted) unless every config turns
	// out infeasible.
	need := stats.PercentileTop(n, pct)
	refuted := make([]bool, len(configs))
	scoreOf := func(i int) (int, Score, error) {
		return i, Score{TotalCost: g.total(i), Tail: tail[i], Feasible: !(tail[i] > slo)}, nil
	}
	for i, ok := order.pop(); ok; i, ok = order.pop() {
		if over, minOver := g.overSLO(i, slo, need); stats.PercentileExceeds(n, over, minOver, pct, slo) {
			refuted[i] = true
			continue
		}
		tail[i] = g.tail(i, pct, lat)
		// searchByRun's test, NaN included.
		if !(tail[i] > slo) {
			return scoreOf(i)
		}
	}
	for i := range tail {
		if refuted[i] {
			tail[i] = g.tail(i, pct, lat)
		}
	}
	return scoreOf(lowestTail(tail))
}

// cheapest hands out config indices in (cost, grid index) order, a total
// order, so the sequence is the stable sort's by cost. It is a binary
// min-heap: a walk that stops after k of n configs makes O(n + k log n)
// comparisons, not a sort's O(n log n).
type cheapest struct {
	heap []int
	cost []float64
}

func (h *cheapest) less(a, b int) bool {
	if c := cmp.Compare(h.cost[a], h.cost[b]); c != 0 {
		return c < 0
	}
	return a < b
}

func (h *cheapest) init() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop returns the cheapest config left, or false when none is.
func (h *cheapest) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	top, last := h.heap[0], len(h.heap)-1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	h.down(0)
	return top, true
}

func (h *cheapest) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			return
		}
		if c+1 < len(h.heap) && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], h.heap[i]) {
			return
		}
		h.heap[i], h.heap[c] = h.heap[c], h.heap[i]
		i = c
	}
}

// searchGrid is one search's tables over a window: enough to form any
// config's batches in O(1) per batch and to read any config's total cost.
type searchGrid struct {
	arrivals []float64
	configs  []lambda.Config
	// parts is |B|·|T|, the number of (B, T) partitions; a config's grid
	// index i is memory i/parts and partition i%parts, the partition's
	// timeout being i%nT (Grid.Configs order: memory, batch, timeout).
	nT, parts int
	// svc holds each memory size's service time by batch size 0..maxSize,
	// memory-major.
	svc     []float64
	maxSize int
	// ends holds timeoutEnds for each timeout, n per timeout. Indices are
	// int32 to halve the search's largest buffer.
	ends []int32
	// rep maps each partition to its distinct partition; totals holds each
	// distinct partition's total cost at every memory size, stride apart.
	rep    []int32
	totals []float64
	stride int
}

// newSearchGrid builds the search's tables and every config's total cost.
// Batch formation needs only the arrivals and (B, T): one pass per timeout
// finds where each request's batch would end on the timeout alone, and any
// B then closes a batch in O(1). Each distinct (B, T) partition is then
// formed once, fanned out across workers, and costs every memory size from
// a per-search table. Scratch comes in one float and one int allocation.
func (s *Simulator) newSearchGrid(arrivals []float64, lg lambda.Grid, configs []lambda.Config) (searchGrid, error) {
	for _, cfg := range configs {
		if !cfg.Valid() {
			return searchGrid{}, errors.New("qsim: invalid configuration " + cfg.String())
		}
	}
	n := len(arrivals)
	if n > math.MaxInt32 {
		return searchGrid{}, fmt.Errorf("qsim: a search window holds at most %d arrivals, got %d", math.MaxInt32, n)
	}
	nM, nT := len(lg.Memories), len(lg.TimeoutsS)
	g := searchGrid{arrivals: arrivals, configs: configs, nT: nT, parts: len(lg.Batches) * nT, maxSize: 1}
	for _, b := range lg.Batches {
		g.maxSize = max(g.maxSize, min(b, n))
	}
	// bySize holds the invocation costs size-major, padded to whole
	// register chunks, so one batch's costs at every memory size sit side
	// by side. Tables are filled before the fan-out, so workers only read
	// them.
	g.stride = (nM + chunk - 1) / chunk * chunk
	rows := g.maxSize + 1
	floats := make([]float64, nM*rows+rows*g.stride+g.parts*g.stride)
	g.svc, floats = floats[:nM*rows], floats[nM*rows:]
	bySize, totals := floats[:rows*g.stride], floats[rows*g.stride:]
	ints := make([]int32, nT*(n+1)+2*g.parts)
	g.ends, ints = ints[:nT*n], ints[nT*n:]
	longest, ints := ints[:nT], ints[nT:]
	g.rep, ints = ints[:g.parts], ints[g.parts:]
	distinct := ints[:0:g.parts]
	for mi, m := range lg.Memories {
		for size := 1; size <= g.maxSize; size++ {
			sv := s.Profile.ServiceTime(m, size)
			g.svc[mi*rows+size] = sv
			bySize[size*g.stride+mi] = s.Pricing.InvocationCost(m, sv)
		}
	}
	for ti, t := range lg.TimeoutsS {
		timeoutEnds(arrivals, t, g.endsOf(ti))
		longest[ti] = int32(longestRun(g.endsOf(ti)))
	}

	// One cell per worker, striding over the distinct partitions. Each
	// partition's totals are written once, from registers.
	distinct = distinctPartitions(lg, longest, g.rep, distinct)
	g.totals = totals
	w := sweep.Options{Workers: s.Opts.Workers}.WorkersFor(len(distinct))
	// The cell reads locals, not g, so g stays off the heap.
	stride, ends := g.stride, g.ends
	err := sweep.Run(sweep.Options{Workers: w}, w, func(c *sweep.Cell) error {
		for d := c.Index; d < len(distinct); d += w {
			pi := int(distinct[d])
			sumCosts(ends[pi%nT*n:][:n], lg.Batches[pi/nT], bySize, stride, totals[d*stride:][:stride])
		}
		return nil
	})
	return g, err
}

// endsOf returns the ends of the timeout of partition or config i.
func (g *searchGrid) endsOf(i int) []int32 {
	n := len(g.arrivals)
	return g.ends[i%g.nT*n:][:n]
}

// svcOf returns config i's service time by batch size.
func (g *searchGrid) svcOf(i int) []float64 {
	rows := g.maxSize + 1
	return g.svc[i/g.parts*rows:][:rows]
}

// total is config i's total cost, Run's TotalCost.
func (g *searchGrid) total(i int) float64 {
	return g.totals[int(g.rep[i%g.parts])*g.stride+i/g.parts]
}

// tail is config i's pct-percentile latency, Run's LatencyPercentile, using
// lat (one float per request) as scratch.
func (g *searchGrid) tail(i int, pct float64, lat []float64) float64 {
	cfg := g.configs[i]
	latencies(g.arrivals, g.endsOf(i), cfg.BatchSize, cfg.TimeoutS, g.svcOf(i), lat)
	tail, _ := stats.PercentileSelect(lat, pct) // lat is non-empty
	return tail
}

// overSLO is overSLO for config i.
func (g *searchGrid) overSLO(i int, slo float64, need int) (over int, minOver float64) {
	cfg := g.configs[i]
	return overSLO(g.arrivals, g.endsOf(i), cfg.BatchSize, cfg.TimeoutS, g.svcOf(i), slo, need)
}

// overSLO counts the latencies above slo under (batchSize, timeoutS), in
// dispatch order until the count reaches need, and returns the count and
// the smallest of those counted (+Inf if none); ends and svc are as for
// latencies. With arrivals nondecreasing, latency never rises with arrival
// time within a batch (dispatch − arrival + svc, rounded monotonically), so
// only each batch's exceeding prefix is read.
func overSLO(arrivals []float64, ends []int32, batchSize int, timeoutS float64, svc []float64, slo float64, need int) (over int, minOver float64) {
	minOver = math.Inf(1)
	for i := 0; i < len(arrivals) && over < need; {
		j := batchEnd(ends, i, batchSize)
		dispatch := dispatchAt(arrivals, i, j, batchSize, timeoutS)
		s := svc[j-i]
		k := i
		for k < j && dispatch-arrivals[k]+s > slo {
			k++
		}
		if k > i {
			over += k - i
			minOver = min(minOver, dispatch-arrivals[k-1]+s)
		}
		i = j
	}
	return over, minOver
}

// timeoutEnds writes into ends[i] where the batch that request i opens would
// end on timeoutS alone: the first k > i with arrivals[k] past
// arrivals[i] + timeoutS, or len(arrivals). That is formBatch's scan without
// the size limit, for every i in one pass: with arrivals nondecreasing the
// deadline never falls as i rises, so k only moves forward.
func timeoutEnds(arrivals []float64, timeoutS float64, ends []int32) {
	k := 0
	for i, a := range arrivals {
		deadline := a + timeoutS
		k = max(k, i+1)
		for k < len(arrivals) && arrivals[k] <= deadline {
			k++
		}
		ends[i] = int32(k)
	}
}

// batchEnd is formBatch's j for the batch request i opens under batchSize,
// given its timeout's ends.
func batchEnd(ends []int32, i, batchSize int) int {
	if j := int(ends[i]); j-i <= batchSize {
		return j
	}
	return i + batchSize
}

// distinctPartitions fills rep, for each (B, T) partition in grid order
// (B-major), with the index in distinct of the first partition with the same
// batch sizes, and returns distinct, appended to, as those first partitions'
// grid indices; longest holds each timeout's longestRun. Two partitions are
// known equal without forming them: a B at or above T's longest timeout run
// closes no batch by count, so every such B forms the timeout-only
// partition, and a batch size of 1, or a longest run of 1, forms all
// singletons at any T. Dispatch times do differ between them; only the batch
// sizes, and so the costs, are shared.
func distinctPartitions(grid lambda.Grid, longest, rep, distinct []int32) []int32 {
	nT := len(grid.TimeoutsS)
	// key is the partition's binding size limit and its timeout's bits, the
	// timeout dropped when every batch is a singleton.
	key := func(pi int) (int, uint64) {
		b := min(grid.Batches[pi/nT], int(longest[pi%nT]))
		if b == 1 {
			return 1, 0
		}
		return b, math.Float64bits(grid.TimeoutsS[pi%nT])
	}
	for pi := range rep {
		b, t := key(pi)
		d := slices.IndexFunc(distinct, func(d int32) bool {
			db, dt := key(int(d))
			return db == b && dt == t
		})
		if d < 0 {
			d = len(distinct)
			distinct = append(distinct, int32(pi))
		}
		rep[pi] = int32(d)
	}
	return distinct
}

// longestRun is the largest batch a timeout alone closes, given its ends.
func longestRun(ends []int32) int {
	longest := 0
	for i := 0; i < len(ends); i = int(ends[i]) {
		longest = max(longest, int(ends[i])-i)
	}
	return longest
}

// chunk is how many memory sizes one pass of sumCosts sums in registers.
const chunk = 8

// sumCosts writes into totals[mi] memory mi's invocation costs summed over
// the batches of the (batchSize, T) partition in dispatch order, like Run's
// TotalCost; ends are T's. bySize holds the costs size-major, stride (a
// multiple of chunk) per size; each pass over the batches keeps chunk
// running sums in registers, and a padding column sums zeros.
func sumCosts(ends []int32, batchSize int, bySize []float64, stride int, totals []float64) {
	for off := 0; off < stride; off += chunk {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i := 0; i < len(ends); {
			j := batchEnd(ends, i, batchSize)
			row := bySize[(j-i)*stride+off:][:chunk]
			s0 += row[0]
			s1 += row[1]
			s2 += row[2]
			s3 += row[3]
			s4 += row[4]
			s5 += row[5]
			s6 += row[6]
			s7 += row[7]
			i = j
		}
		t := totals[off:][:chunk]
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// latencies writes every request's latency under (batchSize, timeoutS) into
// lat, ends being the timeout's and svc the memory size's service time by
// batch size: Run's float operations in Run's order, minus the bookkeeping.
func latencies(arrivals []float64, ends []int32, batchSize int, timeoutS float64, svc, lat []float64) {
	for i := 0; i < len(arrivals); {
		j := batchEnd(ends, i, batchSize)
		dispatch := dispatchAt(arrivals, i, j, batchSize, timeoutS)
		s := svc[j-i]
		for k := i; k < j; k++ {
			lat[k] = dispatch - arrivals[k] + s
		}
		i = j
	}
}
