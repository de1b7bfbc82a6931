package surrogate

import (
	"math"
	"testing"
)

// uniform returns n unit weights.
func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestDefaultMatchesPaper(t *testing.T) {
	cfg := DefaultLossConfig()
	if cfg.Alpha != 0.05 || cfg.Delta != 1 {
		t.Fatalf("DefaultLossConfig = %+v, paper uses alpha=0.05 delta=1", cfg)
	}
	if cfg.SLOPenalty <= 1 {
		t.Fatalf("SLOPenalty = %v, must amplify violating samples", cfg.SLOPenalty)
	}
}

func TestCombinedValue(t *testing.T) {
	cfg := LossConfig{Alpha: 0.05, Delta: 1}
	got := combinedLoss([]float64{1.2}, []float64{1.0}, uniform(1), cfg, 1).value
	// MAPE fraction = 0.2, Huber = 0.5*0.04 = 0.02.
	want := 0.05*0.2 + 0.95*0.02
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("combinedLoss = %v, want %v", got, want)
	}
}

func TestCombinedGradientFlows(t *testing.T) {
	pred, target, wts := []float64{1.5, 0.4}, []float64{1.0, 0.5}, uniform(2)
	cfg := DefaultLossConfig()
	terms := combinedLoss(pred, target, wts, cfg, 1)
	grad := make([]float64, 2)
	terms.backward(grad, pred, target, wts, cfg, 1)
	if grad[0] == 0 || grad[1] == 0 {
		t.Fatalf("combined loss produced zero gradients: %v", grad)
	}
	// Over-prediction should push down, under-prediction up.
	if grad[0] <= 0 {
		t.Fatalf("grad sign for over-prediction: %v", grad[0])
	}
	if grad[1] >= 0 {
		t.Fatalf("grad sign for under-prediction: %v", grad[1])
	}
}

func TestSLOWeightsPenalizesViolatingEntries(t *testing.T) {
	cfg := DefaultLossConfig()
	slo := 0.1
	// Layout [cost, p50, p95]; only p95 violates.
	w := sloWeightsInto(make([]float64, 3), []float64{0.01, 0.05, 0.2}, slo, cfg)
	if w[0] != 1 || w[1] != 1 {
		t.Fatalf("non-violating entries reweighted: %v", w)
	}
	if w[2] != cfg.SLOPenalty {
		t.Fatalf("violating entry weight = %v, want %v", w[2], cfg.SLOPenalty)
	}
	// Non-violating sample gets uniform weights.
	w = sloWeightsInto(w, []float64{0.01, 0.05, 0.08}, slo, cfg)
	for i, v := range w {
		if v != 1 {
			t.Fatalf("weight[%d] = %v, want 1", i, v)
		}
	}
}

func TestSLOWeightsIgnoresCostElement(t *testing.T) {
	// A huge cost (element 0) alone should not trigger the latency penalty.
	w := sloWeightsInto(make([]float64, 2), []float64{99, 0.01}, 0.1, DefaultLossConfig())
	if w[0] != 1 || w[1] != 1 {
		t.Fatalf("weights = %v, cost must not trigger penalty", w)
	}
}

func TestViolates(t *testing.T) {
	if !violates([]float64{0.01, 0.05, 0.2}, 0.1) {
		t.Fatal("violating sample not detected")
	}
	if violates([]float64{0.01, 0.05, 0.08}, 0.1) {
		t.Fatal("feasible sample flagged")
	}
	if violates([]float64{99}, 0.1) {
		t.Fatal("cost-only vector cannot violate")
	}
}

func TestSampleWeight(t *testing.T) {
	cfg := DefaultLossConfig()
	if got := sampleWeight([]float64{0.01, 0.2}, 0.1, cfg); got != cfg.SLOPenalty {
		t.Fatalf("violating sample weight = %v, want %v", got, cfg.SLOPenalty)
	}
	if got := sampleWeight([]float64{0.01, 0.05}, 0.1, cfg); got != 1 {
		t.Fatalf("feasible sample weight = %v, want 1", got)
	}
	cfg.SLOPenalty = 0
	if got := sampleWeight([]float64{0.01, 0.2}, 0.1, cfg); got != 1 {
		t.Fatalf("disabled penalty weight = %v, want 1", got)
	}
}

func TestSampleLevelPenaltyChangesLoss(t *testing.T) {
	// The element weights alone normalize away when uniform; the sample
	// weight is what makes violating samples matter more. Check the
	// composition behaves: a violating tail entry is up-weighted within the
	// sample, so its error dominates.
	cfg := DefaultLossConfig()
	target := []float64{0.01, 0.05, 0.2}
	pred := []float64{0.011, 0.055, 0.3}
	w := sloWeightsInto(make([]float64, 3), target, 0.1, cfg)
	weighted := combinedLoss(pred, target, w, cfg, 1).value
	plain := combinedLoss(pred, target, uniform(3), cfg, 1).value
	if weighted <= plain {
		t.Fatalf("violating-entry weighting should emphasize the tail: %v vs %v", weighted, plain)
	}
}

func TestExplicitTailWeighting(t *testing.T) {
	cfg := DefaultLossConfig()
	pred := []float64{0.011, 0.055, 0.3}
	target := []float64{0.01, 0.05, 0.2}
	plain := combinedLoss(pred, target, uniform(3), cfg, 1).value
	// Emphasizing the violating tail element raises the weighted mean when
	// the tail error dominates.
	mixed := combinedLoss(pred, target, []float64{1, 1, 8}, cfg, 1).value
	if mixed <= plain {
		t.Fatalf("tail-weighted loss %v should exceed plain %v", mixed, plain)
	}
}
