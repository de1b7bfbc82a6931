// Package loss implements the training loss of the DeepBAT surrogate model
// (Eqs. 7–9 of the paper): a weighted combination of Huber loss and mean
// absolute percentage error,
//
//	L(y, yhat) = alpha*MAPE(y, yhat) + (1-alpha)*Huber_delta(y, yhat)
//
// with per-element weights that penalize configurations whose true latency
// violates the SLO more heavily, as the paper's loss is "intentionally
// defined to penalize more for those configurations that violate the SLO".
package loss

import (
	"deepbat/internal/tensor"
)

// Config holds the hyperparameters of the combined loss. The paper uses
// Alpha = 0.05 and Delta = 1.
type Config struct {
	// Alpha weighs MAPE against Huber in the combination.
	Alpha float64
	// Delta is the Huber transition point.
	Delta float64
	// SLOPenalty multiplies the per-element weight of outputs belonging to
	// SLO-violating configurations. 1 disables the penalty.
	SLOPenalty float64
}

// Default returns the paper's loss configuration.
func Default() Config {
	return Config{Alpha: 0.05, Delta: 1, SLOPenalty: 4}
}

// Combined computes the weighted loss between the model output pred and the
// constant target. weights may be nil for uniform weighting; otherwise it
// must have one entry per output element (see SLOWeights).
func Combined(pred, target *tensor.Tensor, cfg Config, weights []float64) *tensor.Tensor {
	ml := tensor.MAPELoss(pred, target, weights)
	hl := tensor.Huber(pred, target, cfg.Delta, weights)
	return tensor.Add(tensor.Scale(ml, cfg.Alpha), tensor.Scale(hl, 1-cfg.Alpha))
}

// Violates reports whether a target vector [cost, p_1, ..., p_k] belongs to
// an SLO-violating configuration — any latency percentile above the SLO.
func Violates(target []float64, slo float64) bool {
	for i := 1; i < len(target); i++ {
		if target[i] > slo {
			return true
		}
	}
	return false
}

// SampleWeight returns the loss multiplier for one training sample: the
// SLOPenalty for configurations whose true latency violates the SLO
// ("the loss function is intentionally defined to penalize more for those
// configurations that violate the SLO, both for latency and cost
// prediction"), 1 otherwise. The multiplier scales the sample's whole
// combined loss; per-element weights inside Combined are normalized by their
// sum and therefore cannot express a sample-level penalty.
func SampleWeight(target []float64, slo float64, cfg Config) float64 {
	if Violates(target, slo) && cfg.SLOPenalty > 0 {
		return cfg.SLOPenalty
	}
	return 1
}

// SLOWeights builds the per-element weight vector for one training sample:
// latency entries above the SLO get the penalty weight, sharpening the fit
// exactly where the constraint binds; the cost element and feasible latency
// entries keep weight 1. Combine with SampleWeight for the sample-level
// penalty.
func SLOWeights(target []float64, slo float64, cfg Config) []float64 {
	return SLOWeightsInto(make([]float64, len(target)), target, slo, cfg)
}

// SLOWeightsInto is SLOWeights writing into dst (the length of target) and
// returning it.
func SLOWeightsInto(dst, target []float64, slo float64, cfg Config) []float64 {
	for i := range dst {
		dst[i] = 1
		if i >= 1 && target[i] > slo && cfg.SLOPenalty > 0 {
			dst[i] = cfg.SLOPenalty
		}
	}
	return dst
}
