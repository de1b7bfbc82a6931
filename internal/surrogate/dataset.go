package surrogate

import (
	"errors"
	"math"
	"math/rand"

	"deepbat/internal/lambda"
	"deepbat/internal/qsim"
	"deepbat/internal/sweep"
	"deepbat/internal/trace"
)

// Sample is one supervised training example: an interarrival window, a
// candidate configuration, and the ground-truth target vector
// [cost, p_1, ..., p_k] obtained from the simulator.
type Sample struct {
	Seq    []float64
	Config lambda.Config
	Target []float64
}

// Dataset is a set of samples with the percentile layout they were built
// for.
type Dataset struct {
	Samples     []Sample
	Percentiles []float64
}

// Split partitions the dataset into train and validation subsets (the last
// valFrac of the samples after the builder's shuffling).
func (d *Dataset) Split(valFrac float64) (train, val *Dataset) {
	n := len(d.Samples)
	cut := n - int(float64(n)*valFrac)
	if cut <= 0 {
		cut = n
	}
	return &Dataset{Samples: d.Samples[:cut], Percentiles: d.Percentiles},
		&Dataset{Samples: d.Samples[cut:], Percentiles: d.Percentiles}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// BuildOptions configures dataset generation.
type BuildOptions struct {
	// NumSamples is the number of (window, configuration) pairs to label.
	NumSamples int
	// SeqLen is the interarrival window length fed to the model.
	SeqLen int
	// Percentiles to label (must match the model's).
	Percentiles []float64
	// Grid is the configuration sub-collection to sample from ("randomly
	// picked feature set ... chosen from the sub-collection of the whole
	// space", Section III-D).
	Grid lambda.Grid
	// Seed makes generation deterministic.
	Seed int64
	// LabelWindow extends the simulated horizon: each window is labeled by
	// simulating LabelWindow*SeqLen interarrivals starting at the window (at
	// least the window itself). A slightly longer horizon stabilizes tail
	// percentile labels.
	LabelWindow int
}

// DefaultBuildOptions returns sensible defaults for the given grid.
func DefaultBuildOptions(grid lambda.Grid) BuildOptions {
	return BuildOptions{
		NumSamples:  1500,
		SeqLen:      64,
		Percentiles: []float64{50, 75, 90, 95, 99},
		Grid:        grid,
		Seed:        1,
		// Labeling over 4x the input window stabilizes the tail-percentile
		// targets (a P95 label from one short window is dominated by its two
		// largest samples); measured on the Azure replay this cuts the
		// closed-loop VCR from ~20% to ~0% at small training budgets.
		LabelWindow: 4,
	}
}

// Build samples random windows from the trace, pairs them with random
// configurations, and labels them with the simulator. Each sample is an
// independent simulation, so labelling runs as one sweep cell per sample;
// the samples and the error returned (the lowest-index failure) do not
// depend on the worker count.
func Build(tr *trace.Trace, sim *qsim.Simulator, opts BuildOptions) (*Dataset, error) {
	if opts.SeqLen <= 0 {
		return nil, errors.New("surrogate: SeqLen must be positive")
	}
	inter := tr.Interarrivals()
	if len(inter) < opts.SeqLen+1 {
		return nil, errors.New("surrogate: trace shorter than one window")
	}
	if opts.NumSamples <= 0 {
		return nil, errors.New("surrogate: NumSamples must be positive")
	}
	cfgs := opts.Grid.Configs()
	if len(cfgs) == 0 {
		return nil, errors.New("surrogate: empty configuration grid")
	}
	horizon := opts.SeqLen
	if opts.LabelWindow > 1 {
		horizon = opts.SeqLen * opts.LabelWindow
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	type job struct {
		start int
		cfg   lambda.Config
	}
	jobs := make([]job, opts.NumSamples)
	maxStart := len(inter) - horizon
	if maxStart < 1 {
		maxStart = 1
	}
	for i := range jobs {
		jobs[i] = job{
			start: rng.Intn(maxStart),
			cfg:   cfgs[rng.Intn(len(cfgs))],
		}
	}

	samples := make([]Sample, opts.NumSamples)
	err := sweep.Run(sweep.Options{}, len(jobs), func(c *sweep.Cell) error {
		j := jobs[c.Index]
		end := min(j.start+horizon, len(inter))
		tgt, err := sim.Evaluate(inter[j.start:end], j.cfg, opts.Percentiles)
		if err != nil {
			return err
		}
		samples[c.Index] = Sample{
			Seq:    inter[j.start : j.start+opts.SeqLen],
			Config: j.cfg,
			Target: tgt.Vector(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Samples: samples, Percentiles: opts.Percentiles}, nil
}

// FitNormalization computes the model's input standardization constants from
// the dataset (log-interarrival statistics and feature statistics over the
// grid) and installs them on the model. Output scales are left at their
// defaults unless the dataset suggests otherwise.
func (m *Model) FitNormalization(d *Dataset) {
	var sum, sumSq float64
	var n int
	for _, s := range d.Samples {
		for _, x := range s.Seq {
			v := logT(x)
			sum += v
			sumSq += v * v
			n++
		}
	}
	if n > 0 {
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if variance < 1e-12 {
			variance = 1e-12
		}
		m.Norm.SeqMean = mean
		m.Norm.SeqStd = math.Sqrt(variance)
	}
	var fsum, fsq [3]float64
	for _, s := range d.Samples {
		f := [3]float64{s.Config.MemoryMB, float64(s.Config.BatchSize), s.Config.TimeoutS}
		for i, v := range f {
			fsum[i] += v
			fsq[i] += v * v
		}
	}
	cnt := float64(len(d.Samples))
	if cnt > 0 {
		for i := 0; i < 3; i++ {
			mean := fsum[i] / cnt
			variance := fsq[i]/cnt - mean*mean
			if variance < 1e-12 {
				variance = 1e-12
			}
			m.Norm.FeatMean[i] = mean
			m.Norm.FeatStd[i] = math.Sqrt(variance)
		}
	}
}
