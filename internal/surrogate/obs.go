package surrogate

import (
	"deepbat/internal/obs"
	"deepbat/internal/opt"
)

// trainMetrics holds the series Train maintains when TrainConfig.Obs is set.
// All registration is error-returning (never Must*) so an injected registry
// with colliding names fails the Train call instead of panicking mid-run.
type trainMetrics struct {
	epochs   *obs.Counter
	batches  *obs.Counter
	samples  *obs.Counter
	loss     *obs.Gauge
	valLoss  *obs.Gauge
	gradLast *obs.Gauge
	gradNorm *obs.Histogram
	workers  *obs.Gauge
	util     *obs.Gauge
}

// gradNormBuckets spans the gradient magnitudes seen across a training run:
// from near-converged (1e-3) to the pre-clip spikes of the first epochs.
func gradNormBuckets() []float64 { return obs.LogBuckets(0.001, 100, 2) }

func newTrainMetrics(reg *obs.Registry) (*trainMetrics, error) {
	if reg == nil {
		return nil, nil
	}
	m := &trainMetrics{}
	var err error
	register := func(dst **obs.Counter, name, help string) {
		if err == nil {
			*dst, err = reg.Counter(name, help)
		}
	}
	gauge := func(dst **obs.Gauge, name, help string) {
		if err == nil {
			*dst, err = reg.Gauge(name, help)
		}
	}
	register(&m.epochs, "surrogate_train_epochs_total", "completed training epochs")
	register(&m.batches, "surrogate_train_batches_total", "optimizer steps taken")
	register(&m.samples, "surrogate_train_samples_total", "training samples consumed")
	gauge(&m.loss, "surrogate_train_loss", "mean combined loss of the last epoch")
	gauge(&m.valLoss, "surrogate_val_loss", "validation loss after the last epoch")
	gauge(&m.gradLast, "surrogate_grad_norm_last", "pre-clip global gradient L2 norm of the last batch")
	gauge(&m.workers, "surrogate_train_workers", "effective data-parallel worker count")
	gauge(&m.util, "surrogate_worker_utilization", "mean fraction of worker shard slots filled over the last epoch")
	if err == nil {
		m.gradNorm, err = reg.Histogram("surrogate_grad_norm",
			"pre-clip global gradient L2 norm per batch", gradNormBuckets())
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// observeBatch records the gradient norm of one optimizer step, given its
// flat gradient. When clipping is disabled the norm is not otherwise
// computed, so it is derived here; the gradient is read, never modified,
// keeping training bit-identical with and without instrumentation.
func (m *trainMetrics) observeBatch(grad []float64, preClipNorm float64, clipped bool) {
	if m == nil {
		return
	}
	norm := preClipNorm
	if !clipped {
		norm = opt.GradNorm(grad)
	}
	m.batches.Inc()
	m.gradNorm.Observe(norm)
	m.gradLast.Set(norm)
}

// observeEpoch records the per-epoch loss gauges and worker-utilization
// figures. used/capacity are the filled and total shard slots summed over the
// epoch's batches (capacity = workers x chunk per batch), so a ragged final
// batch shows up as utilization below 1.
func (m *trainMetrics) observeEpoch(samples int, trainLoss, valLoss float64, workers int, used, capacity float64) {
	if m == nil {
		return
	}
	m.epochs.Inc()
	m.samples.Add(float64(samples))
	m.loss.Set(trainLoss)
	m.valLoss.Set(valLoss)
	m.workers.Set(float64(workers))
	if capacity > 0 {
		m.util.Set(used / capacity)
	}
}
