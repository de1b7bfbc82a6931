package surrogate

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deepbat/internal/lambda"
)

// tapePredict is the reference every compiled-path test compares against:
// the autograd forward the training loop runs, decoded.
func tapePredict(m *Model, seq []float64, cfg lambda.Config) Prediction {
	return m.decode(tapeOf(m).forward(seq, cfg).Data, cfg)
}

// checkAgainstTape sweeps cfgs and holds PredictGrid and Predict, row by row,
// to the tape forward's bits (the tape encodes the window once; its forward
// is head over that encoding).
func checkAgainstTape(t *testing.T, tag string, m *Model, seq []float64, cfgs []lambda.Config) {
	t.Helper()
	grid := m.PredictGrid(seq, cfgs)
	if len(grid) != len(cfgs) {
		t.Fatalf("%s: PredictGrid returned %d of %d", tag, len(grid), len(cfgs))
	}
	tp := tapeOf(m)
	e1 := tp.encode(seq)
	for i, c := range cfgs {
		want := m.decode(tp.head(e1, c).Data, c)
		comparePredictions(t, fmt.Sprintf("%s: grid row %d %v", tag, i, c), grid[i], want)
		if i < 3 { // Predict re-encodes per call; a few rows cover its head path
			comparePredictions(t, fmt.Sprintf("%s: Predict %v", tag, c), m.Predict(seq, c), want)
		}
	}
}

// centreGap is the interarrival time variedModel standardizes to exactly 0.
const centreGap = 0.05

// variedModel builds an untrained model with non-trivial normalization, so
// the feature branch and the decode see varied values.
func variedModel(cfg ModelConfig) *Model {
	m := NewModel(cfg)
	m.Norm.SeqMean, m.Norm.SeqStd = logT(centreGap), 1.5
	m.Norm.FeatMean = [3]float64{1500, 4, 0.05}
	m.Norm.FeatStd = [3]float64{700, 3, 0.03}
	return m
}

// zeroGapWindow draws a window with simultaneous arrivals (gap exactly 0)
// and, at least once, the gap variedModel standardizes to exactly 0 — an
// input the embedding product must skip, as the tape does.
func zeroGapWindow(rng *rand.Rand, n int) []float64 {
	seq := randomWindow(rng, n)
	for i := range seq {
		switch rng.Intn(4) {
		case 0:
			seq[i] = 0
		case 1:
			seq[i] = centreGap
		}
	}
	seq[rng.Intn(n)] = centreGap
	return seq
}

func containsZero(xs []float64) bool {
	for _, x := range xs {
		if x == 0 {
			return true
		}
	}
	return false
}

// TestCompiledMatchesTape pins the tentpole contract across the shapes that
// change which kernels run: window lengths from one element up to the
// paper's 256, head widths 16, 8 and 4 (only 8 fills a GEMM panel; the
// others take the ragged kernels), and the post-attention ablation. The
// dropout rows are the lab's and the benchmark's setting: evaluation mode
// must draw no mask.
func TestCompiledMatchesTape(t *testing.T) {
	for _, seqLen := range []int{1, 8, 32, 64, 256} {
		for _, heads := range []int{1, 2, 4} {
			for _, mode := range []struct {
				noPost  bool
				dropout float64
			}{{false, 0}, {true, 0}, {false, 0.05}} {
				noPost := mode.noPost
				cfg := tinyModelConfig()
				cfg.SeqLen, cfg.Heads, cfg.DisablePostAttention = seqLen, heads, noPost
				cfg.Dropout = mode.dropout
				cfg.Seed = int64(seqLen*10 + heads)
				m := variedModel(cfg)
				rng := rand.New(rand.NewSource(cfg.Seed))
				cfgs := append(tinyGrid().Configs(), randomGrid(rng)...)
				tag := fmt.Sprintf("l=%d heads=%d noPost=%v dropout=%v", seqLen, heads, noPost, mode.dropout)
				checkAgainstTape(t, tag, m, randomWindow(rng, seqLen), cfgs)
				checkAgainstTape(t, tag+" zero gaps", m, zeroGapWindow(rng, seqLen), cfgs)

				seq := zeroGapWindow(rng, seqLen)
				tp := tapeOf(m)
				if x := tp.normalizeSeq(seq).Data; !containsZero(x) {
					t.Fatalf("%s: no standardized input is exactly 0: %v", tag, x)
				}
				want := tp.encode(seq)
				got := m.EncodeSequence(seq)
				if len(got) != len(want.Data) || want.Rows() != 1 {
					t.Fatalf("%s: EncodeSequence length %d, tape shape %v", tag, len(got), want.Shape)
				}
				for i := range want.Data {
					if !bitEqual(got[i], want.Data[i]) {
						t.Fatalf("%s: EncodeSequence[%d] = %v, tape %v (bitwise)", tag, i, got[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestCompiledGridSwaps covers the config-list edge cases of the cached
// feature rows: empty and single-element lists, and a grid swapped between
// calls — for one of different length, for one of equal length and different
// values, and back.
func TestCompiledGridSwaps(t *testing.T) {
	m := variedModel(tinyModelConfig())
	rng := rand.New(rand.NewSource(4))
	seq := randomWindow(rng, 16)
	if got := m.PredictGrid(seq, []lambda.Config{}); len(got) != 0 {
		t.Fatalf("empty grid returned %d predictions", len(got))
	}
	a := tinyGrid().Configs()
	b := append([]lambda.Config(nil), a...)
	b[3].TimeoutS *= 2
	b[7].BatchSize++
	for i, cfgs := range [][]lambda.Config{a[:1], a, b, lambda.DefaultGrid().Configs(), a, b[:1], a} {
		checkAgainstTape(t, fmt.Sprintf("swap %d", i), m, seq, cfgs)
	}
	// The caller's slice is not retained: scribbling on it after a sweep
	// must not poison the next sweep of the original values.
	mine := append([]lambda.Config(nil), a...)
	m.PredictGrid(seq, mine)
	mine[0].MemoryMB = 128
	checkAgainstTape(t, "after caller mutation", m, seq, mine)
	checkAgainstTape(t, "original after caller mutation", m, seq, a)
}

// withParam returns the model Load makes of m's Save with element j of
// saved tensor i (block order) replaced by f of its value: the one way to
// write a weight from outside Train.
func withParam(t testing.TB, m *Model, i, j int, f func(float64) float64) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	s.Params[i][j] = f(s.Params[i][j])
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestCompiledNeverStale changes the model between sweeps in every way the
// repo does — FineTune, Train, FitNormalization, Load, a Load of each
// parameter tensor changed in turn, a direct write to Norm — and holds the
// next sweep to the tape forward of the changed model. Nothing here
// invalidates anything by hand: every writer of the weights drops the
// snapshot, and Norm is read live.
func TestCompiledNeverStale(t *testing.T) {
	ds := tinyDataset(t, 40, 16)
	m := NewModel(tinyModelConfig())
	m.FitNormalization(ds)
	cfgs := tinyGrid().Configs()
	seq := ds.Samples[0].Seq
	checkAgainstTape(t, "fresh", m, seq, cfgs)

	ft := FineTuneConfig()
	ft.Epochs = 1
	if _, err := m.FineTune(ds, ft); err != nil {
		t.Fatal(err)
	}
	checkAgainstTape(t, "after FineTune", m, seq, cfgs)

	tc := DefaultTrainConfig()
	tc.Epochs = 1
	if _, err := m.Train(ds, nil, tc); err != nil {
		t.Fatal(err)
	}
	checkAgainstTape(t, "after Train", m, seq, cfgs)

	other := synthDataset(12, 16, 5)
	m.FitNormalization(other)
	checkAgainstTape(t, "after FitNormalization", m, seq, cfgs)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstTape(t, "after Load", loaded, seq, cfgs)
	got, want := loaded.PredictGrid(seq, cfgs), m.PredictGrid(seq, cfgs)
	for i := range want {
		comparePredictions(t, "loaded vs saved", got[i], want[i])
	}

	for i, n := range m.lay.segs {
		m = withParam(t, m, i, n/2, func(v float64) float64 { return v + 0.25 })
		checkAgainstTape(t, fmt.Sprintf("after a Load with tensor %d changed", i), m, seq, cfgs[:3])
	}
	m.Norm.FeatStd[1] *= 2
	checkAgainstTape(t, "after write to Norm.FeatStd", m, seq, cfgs)
	m.Norm.OutScale[2] *= 3
	m.Norm.SeqMean += 0.5
	checkAgainstTape(t, "after write to Norm.OutScale/SeqMean", m, seq, cfgs)
}

// TestForwardRowsMixedLengths runs the batched evaluation pass over samples
// whose windows differ in length (the arena is reserved for the longest).
func TestForwardRowsMixedLengths(t *testing.T) {
	m := variedModel(tinyModelConfig())
	rng := rand.New(rand.NewSource(8))
	ds := &Dataset{Percentiles: m.Cfg.Percentiles}
	for _, n := range []int{3, 16, 1, 40, 16} {
		ds.Samples = append(ds.Samples, Sample{Seq: zeroGapWindow(rng, n), Config: randomGrid(rng)[0]})
	}
	out, w := m.forwardRows(ds), m.Cfg.OutputDim()
	for i, s := range ds.Samples {
		for j, want := range tapeOf(m).forward(s.Seq, s.Config).Data {
			if !bitEqual(out[i*w+j], want) {
				t.Fatalf("sample %d output %d = %v vs %v (bitwise)", i, j, out[i*w+j], want)
			}
		}
	}
}

// TestWorkspaceEnforcesReservation takes one float past a reservation from
// an arena whose pooled buffer is larger: the limit is what was reserved,
// not what the pool happened to hand back.
func TestWorkspaceEnforcesReservation(t *testing.T) {
	putWorkspace(getWorkspace(64))
	ws := getWorkspace(8)
	defer putWorkspace(ws)
	ws.take(8)
	defer func() {
		if recover() == nil {
			t.Fatal("taking past the reservation did not panic")
		}
	}()
	ws.take(1)
}

// TestCompiledConcurrentGrids sweeps one model from eight goroutines on two
// different grids at once (run under -race by `make race`): every goroutine
// keeps computing on the snapshot it validated, whichever grid the others
// publish meanwhile.
func TestCompiledConcurrentGrids(t *testing.T) {
	m := variedModel(tinyModelConfig())
	seq := randomWindow(rand.New(rand.NewSource(6)), 16)
	grids := [][]lambda.Config{tinyGrid().Configs(), lambda.DefaultGrid().Configs()}
	want := make([][]Prediction, len(grids))
	for g, cfgs := range grids {
		for _, c := range cfgs {
			want[g] = append(want[g], tapePredict(m, seq, c))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := w % len(grids)
			for it := 0; it < 50; it++ {
				got := m.PredictGrid(seq, grids[g])
				for i := range got {
					if !bitEqual(got[i].CostPerRequest, want[g][i].CostPerRequest) ||
						!bitEqual(got[i].Percentiles[3], want[g][i].Percentiles[3]) {
						t.Errorf("goroutine %d grid %d row %d: got %+v, want %+v", w, g, i, got[i], want[g][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
