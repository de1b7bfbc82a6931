package qsim

import (
	"math/rand"
	"testing"

	"deepbat/internal/lambda"
)

// TestGroundTruthBestParallelMatchesSerial pins the sweep fan-out contract
// for the grid search: the selected config and its score are bit-identical
// whether the grid is evaluated serially or across workers.
func TestGroundTruthBestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := make([]float64, 400)
	at := 0.0
	for i := range ts {
		at += rng.ExpFloat64() / 80
		ts[i] = at
	}
	grid := lambda.DefaultGrid()

	serial := New(lambda.DefaultProfile(), lambda.DefaultPricing())
	serial.Opts.Workers = 1
	sCfg, sScore, err := serial.GroundTruthBest(ts, grid, 0.1, 95)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{0, 4, 8} {
		par := New(lambda.DefaultProfile(), lambda.DefaultPricing())
		par.Opts.Workers = w
		pCfg, pScore, err := par.GroundTruthBest(ts, grid, 0.1, 95)
		if err != nil {
			t.Fatal(err)
		}
		if pCfg != sCfg {
			t.Fatalf("workers=%d selected %v, serial selected %v", w, pCfg, sCfg)
		}
		if !sameScore(pScore, sScore) {
			t.Fatalf("workers=%d: score %+v, want %+v", w, pScore, sScore)
		}
	}
}
