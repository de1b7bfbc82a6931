package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepbat/internal/opt"
	"deepbat/internal/tensor"
)

// tapeStep runs one sample through the tape with its parameter gradients
// preset to seed (block order), and returns the scaled loss and the
// resulting flat gradient. With dropout, masks come from a fresh stream
// seeded with dropSeed, as Train seeds them.
func tapeStep(tp *tape, s Sample, cfg TrainConfig, scale float64, dropSeed int64, seed []float64) (float64, []float64) {
	params := tp.params()
	off := 0
	for _, p := range params {
		copy(p.Grad, seed[off:off+len(p.Grad)])
		off += len(p.Grad)
	}
	tp.enc.SetTrain(true)
	defer tp.enc.SetTrain(false)
	if tp.m.Cfg.Dropout > 0 {
		tp.enc.SetDropoutRNG(rand.New(rand.NewSource(dropSeed)))
	}
	l := tensor.Scale(tp.sampleLoss(s, cfg), scale)
	tensor.Backward(l)
	grad := make([]float64, 0, off)
	for _, p := range params {
		grad = append(grad, p.Grad...)
	}
	return l.Item(), grad
}

// compiledStep is tapeStep on the compiled training step.
func compiledStep(m *Model, s Sample, cfg TrainConfig, scale float64, dropSeed int64, seed []float64) (float64, []float64) {
	st := newTrainStep(m)
	st.repack()
	w := st.newWorker(len(s.Seq))
	w.rng.Seed(dropSeed)
	grad := append([]float64(nil), seed...)
	return st.run(w, s, cfg, scale, grad), grad
}

// perturb moves every parameter off its initialisation (zero biases, unit
// LayerNorm gains), so every term of every gradient carries weight.
func perturb(m *Model, rng *rand.Rand) {
	for i := range m.params {
		m.params[i] += 0.2 * rng.NormFloat64()
	}
}

// stepSamples builds one sample of each loss regime for m: one whose targets
// sit within and beyond the Huber delta of the prediction, with a zero cost
// target (skipped by MAPE); one whose latencies violate the SLO (sample
// weight ≠ 1); and a feasible one. Windows carry exact-zero gaps.
func stepSamples(t testing.TB, m *Model, cfg TrainConfig, rng *rand.Rand) []Sample {
	l := m.Cfg.SeqLen
	out := m.Cfg.OutputDim()
	cfgs := randomGrid(rng)
	mixed := Sample{Seq: zeroGapWindow(rng, l), Config: cfgs[0], Target: make([]float64, out)}
	pred := tapeOf(m).forward(mixed.Seq, mixed.Config).Data
	offsets := []float64{0.25, -3, 0.5, 2.5, -0.75, 4}
	for i := range mixed.Target {
		mixed.Target[i] = (pred[i] + offsets[i%len(offsets)]) * m.Norm.OutScale[i]
	}
	mixed.Target[0] = 0
	violating := Sample{Seq: randomWindow(rng, l), Config: cfgs[len(cfgs)-1], Target: make([]float64, out)}
	feasible := Sample{Seq: zeroGapWindow(rng, l), Config: cfgs[0], Target: make([]float64, out)}
	violating.Target[0], feasible.Target[0] = 3e-6, 1e-6
	for i := 1; i < out; i++ {
		violating.Target[i] = 0.15 + 0.1*float64(i)
		feasible.Target[i] = 0.01 * float64(i)
	}
	if sampleWeight(violating.Target, cfg.SLO, cfg.Loss) == 1 || sampleWeight(feasible.Target, cfg.SLO, cfg.Loss) != 1 {
		t.Fatalf("sample weights do not cover both regimes")
	}
	return []Sample{mixed, violating, feasible}
}

// checkStep holds the compiled step to the tape on one sample, bit for bit,
// from zero gradients, from gradients preset to -0 (a parameter gradient
// that stays -0 shows the sign of every zero term added to it), and from
// random ones.
func checkStep(t testing.TB, tag string, m *Model, s Sample, cfg TrainConfig, scale float64, dropSeed int64, rng *rand.Rand) {
	t.Helper()
	n := len(m.params)
	negZero, seeded := make([]float64, n), make([]float64, n)
	for i := range seeded {
		negZero[i] = math.Copysign(0, -1)
		seeded[i] = rng.NormFloat64()
	}
	for _, seed := range [][]float64{make([]float64, n), negZero, seeded} {
		wantLoss, want := tapeStep(tapeOf(m), s, cfg, scale, dropSeed, seed)
		gotLoss, got := compiledStep(m, s, cfg, scale, dropSeed, seed)
		if !bitEqual(gotLoss, wantLoss) {
			t.Fatalf("%s: loss %v, tape %v (bitwise)", tag, gotLoss, wantLoss)
		}
		for i := range want {
			if !bitEqual(got[i], want[i]) {
				t.Fatalf("%s: gradient %d = %v, tape %v (bitwise)", tag, i, got[i], want[i])
			}
		}
	}
}

// TestTrainStepMatchesTape pins the compiled training step to the tape —
// loss and every gradient element, bit for bit — across encoder depths
// (none included), window lengths, head counts, the post-attention
// ablation, dropout, and every loss regime.
func TestTrainStepMatchesTape(t *testing.T) {
	cfg := DefaultTrainConfig()
	for _, layers := range []int{2, 0} {
		for _, seqLen := range []int{1, 8, 32, 64} {
			for _, heads := range []int{1, 2, 4} {
				for _, noPost := range []bool{false, true} {
					for _, drop := range []float64{0, 0.1} {
						mc := tinyModelConfig()
						mc.EncoderLayers, mc.SeqLen, mc.Heads, mc.DisablePostAttention, mc.Dropout = layers, seqLen, heads, noPost, drop
						mc.Seed = int64(seqLen*10 + heads)
						m := variedModel(mc)
						rng := rand.New(rand.NewSource(mc.Seed))
						perturb(m, rng)
						for i, s := range stepSamples(t, m, cfg, rng) {
							tag := fmt.Sprintf("layers=%d l=%d heads=%d noPost=%v dropout=%v sample %d", layers, seqLen, heads, noPost, drop, i)
							checkStep(t, tag, m, s, cfg, 1/float64(i+3), sampleSeed(3, i, seqLen), rng)
						}
					}
				}
			}
		}
	}
}

// FuzzTrainStepMatchesTape draws a tiny random architecture, window and
// target and holds the compiled step to the tape bit for bit.
func FuzzTrainStepMatchesTape(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0), 1.0)
	f.Add(int64(2), uint8(1), uint8(0xff), 0.0)
	f.Add(int64(3), uint8(40), uint8(0x5a), 20.0)
	f.Fuzz(func(t *testing.T, seed int64, seqLen, bits uint8, target float64) {
		if math.IsNaN(target) || math.IsInf(target, 0) || math.Abs(target) > 1e6 {
			t.Skip("non-finite or huge target")
		}
		mc := tinyModelConfig()
		mc.SeqLen = 1 + int(seqLen)%40
		mc.Heads = []int{1, 2, 4}[int(bits)%3]
		mc.EmbedDim = 4 * (1 + int(bits>>2)%3)
		mc.FFHidden = 3 + int(bits>>4)%14
		mc.EncoderLayers = int(bits>>6) % 3
		mc.DisablePostAttention = bits&0x20 != 0
		if bits&0x08 != 0 {
			mc.Dropout = 0.2
		}
		mc.Percentiles = []float64{50, 90, 99}[:1+int(bits)%3]
		mc.Seed = seed
		m := variedModel(mc)
		rng := rand.New(rand.NewSource(seed))
		perturb(m, rng)
		s := Sample{Seq: zeroGapWindow(rng, mc.SeqLen), Config: randomGrid(rng)[0], Target: make([]float64, mc.OutputDim())}
		for i := range s.Target {
			s.Target[i] = target * rng.Float64()
		}
		if bits&0x10 != 0 {
			s.Target[rng.Intn(len(s.Target))] = 0
		}
		checkStep(t, fmt.Sprintf("%+v", mc), m, s, DefaultTrainConfig(), 0.125, seed, rng)
	})
}

// tapeTrain is the reference training loop, entirely on the tape: per sample
// a fresh gradient from Backward, reduced in sample order, clipped and
// stepped by opt.Adam over the tape's tensors, with the validation loss from
// sampleLoss in evaluation mode.
func tapeTrain(m *Model, train, val *Dataset, cfg TrainConfig) *History {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := tapeOf(m)
	params := tp.params()
	optim := opt.NewAdam(params, cfg.LR)
	n := len(m.params)
	sum := make([]float64, n)
	hist := &History{}
	order := make([]int, train.Len())
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			scale := 1 / float64(end-start)
			var grads [][]float64
			var batchLoss float64
			for p := 0; p < end-start; p++ {
				l, g := tapeStep(tp, train.Samples[order[start+p]], cfg, scale, sampleSeed(cfg.Seed, epoch, start+p), make([]float64, n))
				grads = append(grads, g)
				batchLoss += l
			}
			clear(sum)
			for _, g := range grads {
				for j, v := range g {
					sum[j] += v
				}
			}
			if cfg.ClipNorm > 0 {
				opt.ClipGradNorm(sum, cfg.ClipNorm)
			}
			off := 0
			for _, q := range params {
				off += copy(q.Grad, sum[off:])
			}
			optim.Step()
			epochLoss += batchLoss
			batches++
		}
		epochLoss /= float64(batches)
		var valLoss float64
		for _, s := range val.Samples {
			valLoss += tp.sampleLoss(s, cfg).Item()
		}
		valLoss /= float64(val.Len())
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		hist.ValLoss = append(hist.ValLoss, valLoss)
	}
	return hist
}

// TestTrainMatchesTapeLoop holds Train to the tape-only reference loop: the
// same weights and the same histories, bit for bit, over three epochs with
// dropout, active clipping and a ragged last batch, at 1, 2 and 4 workers.
func TestTrainMatchesTapeLoop(t *testing.T) {
	train, val := synthDataset(19, 12, 21), synthDataset(5, 12, 22)
	mc := tinyModelConfig()
	mc.Dropout = 0.1
	tc := DefaultTrainConfig()
	tc.Epochs, tc.BatchSize, tc.ClipNorm = 3, 4, 0.5

	ref := NewModel(mc)
	ref.FitNormalization(train)
	want := tapeTrain(ref, train, val, tc)
	for _, workers := range []int{1, 2, 4} {
		m := NewModel(mc)
		m.FitNormalization(train)
		tc.Workers = workers
		got, err := m.Train(train, val, tc)
		if err != nil {
			t.Fatal(err)
		}
		for e := range want.TrainLoss {
			if !bitEqual(got.TrainLoss[e], want.TrainLoss[e]) || !bitEqual(got.ValLoss[e], want.ValLoss[e]) {
				t.Fatalf("workers=%d epoch %d: losses (%v, %v), tape (%v, %v)",
					workers, e, got.TrainLoss[e], got.ValLoss[e], want.TrainLoss[e], want.ValLoss[e])
			}
		}
		for i, v := range ref.params {
			if !bitEqual(m.params[i], v) {
				t.Fatalf("workers=%d: parameter %d = %v, tape %v", workers, i, m.params[i], v)
			}
		}
	}
}

// TestTrainAllocBudget guards the compiled step's allocation profile: one
// Train epoch over 24 samples at SeqLen 16 allocates its set-up (the
// training network, the arenas, the flat gradients, Adam's two moment
// slices), four objects per minibatch for the sweep, and the validation pass
// (which packs a forward-only network for the inference snapshot the
// optimizer step dropped) — 105 to 107 in all when measured, never anything
// per sample or per op. The budget adds room for a GC emptying the
// workspace pool (two objects). Routed through the tape, the same epoch
// allocates hundreds of objects per sample.
func TestTrainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc budget is not meaningful")
	}
	train, val := synthDataset(24, 16, 31), synthDataset(6, 16, 32)
	mc := tinyModelConfig()
	mc.Dropout = 0.05
	m := NewModel(mc)
	m.FitNormalization(train)
	tc := DefaultTrainConfig()
	tc.Epochs, tc.Workers = 1, 1
	run := func() {
		if _, err := m.Train(train, val, tc); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 110
	if allocs := testing.AllocsPerRun(3, run); allocs > budget {
		t.Fatalf("one Train epoch allocates %.0f objects, budget %d", allocs, budget)
	}
}
